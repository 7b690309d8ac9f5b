package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// FuzzEndpointRead: the preamble both mapping endpoints share — /v1/map
// on either tier and a worker's /v1/cluster/scatter — on any method and
// body. It must not panic. A request it refuses gets a status and
// envelope code of the preamble's own set. A request it accepts is left
// unanswered and carries 1…maxReads non-empty reads, a well-formed shard
// list when it is a scatter, and a deadline in (0, cap].
func FuzzEndpointRead(f *testing.F) {
	const maxReads, deadlineCap = 2, time.Second
	front := NewFront("server", slog.New(slog.NewTextHandler(io.Discard, nil)), deadlineCap, maxReads, 1<<16, 1)
	front.SetReady()
	endpoints := map[bool]*Endpoint{
		false: front.Map(),
		true:  front.endpoint("scatter_requests", "scatter_requests_failed", "scatter_canceled", "scatter_reads", true),
	}
	refusals := map[int]string{
		http.StatusBadRequest:            CodeBadRequest,
		http.StatusForbidden:             CodeRefLoadDisabled,
		http.StatusMethodNotAllowed:      CodeMethodNotAllow,
		http.StatusRequestEntityTooLarge: CodeTooManyReads,
	}

	// The bodies TestRouterAnswersLikeDarwind sends both tiers, on both
	// endpoints, plus the scatter shapes.
	const read = `{"name":"r","seq":"ACGTACGTACGTACGTACGT"}`
	for _, body := range []string{
		`not json`,
		`{"reads":[]}`,
		`{"reads":[` + read + `,` + read + `,` + read + `]}`,
		`{"reads":[{"name":"r","seq":""}]}`,
		`{"reference":"/other.fa","reads":[` + read + `]}`,
		`{"reads":[` + read + `]}`,
		`{"reads":[` + read + `,` + read + `]}`,
		`{"timeout_ms":30,"reads":[` + read + `,` + read + `]}`,
		`{"shards":[0,1],"reads":[` + read + `]}`,
		`{"shards":[0,0],"reads":[` + read + `]}`,
		`{"shards":[-1],"reads":[` + read + `]}`,
		`{"shards":[],"timeout_ms":-5,"reads":[` + read + `]}`,
	} {
		f.Add(http.MethodPost, []byte(body), false)
		f.Add(http.MethodPost, []byte(body), true)
	}
	f.Add(http.MethodGet, []byte(nil), false)

	f.Fuzz(func(t *testing.T, method string, body []byte, scatter bool) {
		r := httptest.NewRequest(http.MethodPost, "/v1/map", bytes.NewReader(body))
		r.Method = method
		w := httptest.NewRecorder()
		req, reads, timeout, ok := endpoints[scatter].Read(w, r)
		if !ok {
			var eb ErrorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil {
				t.Fatalf("refused with %d and no envelope: %q", w.Code, w.Body.Bytes())
			}
			if code, known := refusals[w.Code]; !known || eb.Error.Code != code {
				t.Fatalf("refused with %d %q, want one of %v", w.Code, eb.Error.Code, refusals)
			}
			return
		}
		if w.Body.Len() != 0 {
			t.Fatalf("accepted request was also answered: %q", w.Body.Bytes())
		}
		if len(reads) < 1 || len(reads) > maxReads || len(reads) != len(req.Reads) {
			t.Fatalf("accepted %d reads (%d in the body), want 1…%d", len(reads), len(req.Reads), maxReads)
		}
		for i, s := range reads {
			if len(s) == 0 {
				t.Fatalf("accepted read %d with an empty sequence", i)
			}
		}
		if req.Reference != "" {
			t.Fatalf("accepted a request naming reference %q", req.Reference)
		}
		if scatter && (len(req.Shards) == 0 || checkShardList(req.Shards) != nil) {
			t.Fatalf("accepted scatter with shards %v", req.Shards)
		}
		if timeout <= 0 || timeout > deadlineCap {
			t.Fatalf("deadline %v outside (0, %v]", timeout, deadlineCap)
		}
	})
}
