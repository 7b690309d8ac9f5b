package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"darwin/internal/dna"
	"darwin/internal/jobs"
	"darwin/internal/server"
)

// jobModeConfig is the -jobs-target submit/poll/fetch flow's knobs.
type jobModeConfig struct {
	target     string
	readsPath  string
	kind       string
	minOverlap int
	polish     int
	minContig  int
	poll       time.Duration
	out        string
}

// decodeEnvelope renders the server's structured error body, or the
// raw body when it is not one.
func decodeEnvelope(body []byte) string {
	var env server.ErrorBody
	if json.Unmarshal(body, &env) == nil && env.Error.Code != "" {
		return fmt.Sprintf("%s: %s (request %s)", env.Error.Code, env.Error.Message, env.Error.RequestID)
	}
	return strings.TrimSpace(string(body))
}

// runJobMode submits the read set as an assembly job, polls status
// until it resolves, and streams the result.
func runJobMode(cfg jobModeConfig) error {
	base := cfg.target
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	base = strings.TrimRight(base, "/")

	// Parse locally (FASTA or FASTQ by extension) and submit canonical
	// FASTA: malformed read sets fail here, not server-side.
	recs, err := dna.ReadFile(cfg.readsPath)
	if err != nil {
		return err
	}
	var payload bytes.Buffer
	if err := dna.WriteFASTA(&payload, recs); err != nil {
		return err
	}

	q := url.Values{}
	q.Set("kind", cfg.kind)
	if cfg.minOverlap > 0 {
		q.Set("min_overlap", strconv.Itoa(cfg.minOverlap))
	}
	if cfg.polish >= 0 {
		q.Set("polish", strconv.Itoa(cfg.polish))
	}
	if cfg.minContig > 0 {
		q.Set("min_contig", strconv.Itoa(cfg.minContig))
	}

	client := &http.Client{}
	resp, err := client.Post(base+"/v1/jobs?"+q.Encode(), "text/x-fasta", &payload)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, decodeEnvelope(body))
	}
	var st jobs.Status
	if err := json.Unmarshal(body, &st); err != nil {
		return fmt.Errorf("submit: bad response: %w", err)
	}
	fmt.Fprintf(os.Stderr, "darwin-client: job %s submitted (%s, %d reads)\n", st.ID, st.Kind, st.Reads)

	// Poll until terminal; re-print progress only when it changes.
	lastLine := ""
	for {
		time.Sleep(cfg.poll)
		resp, err := client.Get(base + "/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("status: HTTP %d: %s", resp.StatusCode, decodeEnvelope(body))
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("status: bad response: %w", err)
		}
		if line := progressLine(st); line != lastLine {
			fmt.Fprintln(os.Stderr, "darwin-client: "+line)
			lastLine = line
		}
		switch st.State {
		case jobs.StateDone:
			return fetchJobResult(client, base, st, cfg.out)
		case jobs.StateFailed:
			code := st.ErrorCode
			if code == "" {
				code = server.CodeInternal
			}
			return fmt.Errorf("job %s failed (%s): %s", st.ID, code, st.Error)
		case jobs.StateCanceled:
			return fmt.Errorf("job %s was canceled", st.ID)
		}
	}
}

// progressLine renders a compact stage-progress summary.
func progressLine(st jobs.Status) string {
	var parts []string
	names := make([]string, 0, len(st.Stages))
	for name := range st.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		p := st.Stages[name]
		parts = append(parts, fmt.Sprintf("%s %d/%d", name, p.Done, p.Total))
	}
	line := fmt.Sprintf("job %s %s", st.ID, st.State)
	if len(parts) > 0 {
		line += ": " + strings.Join(parts, ", ")
	}
	if st.Resumed {
		line += fmt.Sprintf(" (resumed from read %d)", st.ResumeRead)
	}
	return line
}

// fetchJobResult streams GET /v1/jobs/{id}/result to out (or stdout)
// and prints the result summary.
func fetchJobResult(client *http.Client, base string, st jobs.Status, outPath string) error {
	resp, err := client.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("result: HTTP %d: %s", resp.StatusCode, decodeEnvelope(body))
	}
	out := os.Stdout
	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	if _, err := io.Copy(out, resp.Body); err != nil {
		return err
	}
	if r := st.Result; r != nil {
		fmt.Fprintf(os.Stderr, "darwin-client: job %s done: overlaps=%d contigs=%d total_len=%d N50=%d checkpoints=%d\n",
			st.ID, r.Overlaps, r.Contigs, r.TotalLen, r.N50, st.Checkpoints)
	}
	return nil
}
