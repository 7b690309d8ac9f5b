package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"darwin/internal/shard"
)

// TestScatterPreamble: a worker refuses a malformed shard list as the
// client error it is (400), a shard it does not own as a stale cluster
// map (409), and serves a well-formed one.
func TestScatterPreamble(t *testing.T) {
	_, ts, reads := testService(t, Config{
		Shard: shard.Config{Shards: 4},
		Worker: WorkerConfig{Enabled: true, Name: "w",
			AssignShards: func(int) ([]int, error) { return []int{1, 0}, nil }},
	})
	read := ReadInput{Name: "r", Seq: reads[0].Seq}
	rows := []struct {
		name   string
		body   RequestBody
		status int
		code   string
	}{
		{"owned shards", RequestBody{Shards: []int{0, 1}}, http.StatusOK, ""},
		{"shard listed twice", RequestBody{Shards: []int{0, 0}}, http.StatusBadRequest, CodeBadRequest},
		{"negative shard", RequestBody{Shards: []int{-1}}, http.StatusBadRequest, CodeBadRequest},
		{"shard not owned", RequestBody{Shards: []int{3}}, http.StatusConflict, CodeShardNotOwned},
		{"reference set", RequestBody{MapRequest: MapRequest{Reference: "/other.fa"}, Shards: []int{0}}, http.StatusForbidden, CodeRefLoadDisabled},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.body.Reads = []ReadInput{read}
			body, err := json.Marshal(row.body)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/cluster/scatter", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var eb ErrorBody
			if resp.StatusCode != http.StatusOK {
				if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
					t.Fatalf("status %d without the structured envelope: %v", resp.StatusCode, err)
				}
			}
			if resp.StatusCode != row.status || eb.Error.Code != row.code {
				t.Errorf("status=%d code=%q (%s), want %d %q", resp.StatusCode, eb.Error.Code, eb.Error.Message, row.status, row.code)
			}
		})
	}
}
