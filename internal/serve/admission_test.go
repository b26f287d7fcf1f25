package serve

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"repro/internal/campaign"
)

// The graph-size cap (Config.MaxN) must hold at every entry point that
// makes the daemon sample graphs, with the same 400 the run endpoint uses.

const admissionCap = 100

// expectCapRejection asserts a 400 whose message names the oversized n.
func expectCapRejection(t *testing.T, resp *http.Response, what string) {
	t.Helper()
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("%s over the n cap: status %d, want 400 (%s)", what, resp.StatusCode, b)
	}
	if !strings.Contains(string(b), "n 101 outside [1, 100]") {
		t.Fatalf("%s over the n cap: error %s does not name the cap", what, b)
	}
}

func TestRunEndpointRejectsNAboveMaxN(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxN: admissionCap})
	expectCapRejection(t, postJSON(t, ts.URL+"/v1/run", RunRequest{N: admissionCap + 1, D: 8}), "/v1/run")
	resp := postJSON(t, ts.URL+"/v1/run", RunRequest{N: admissionCap, D: 8, GraphSeed: 1})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/run at the n cap: status %d, want 200", resp.StatusCode)
	}
}

func TestCampaignEndpointRejectsNAboveMaxN(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxN: admissionCap})
	spec := shardSpec()
	// A second point over the cap: one oversized point rejects the spec.
	spec.Points = append(spec.Points, campaign.PointSpec{
		ID: "big", X: admissionCap + 1, Trial: campaign.TrialSpec{Kind: "distributed", N: admissionCap + 1, D: 8},
	})
	expectCapRejection(t, postJSON(t, ts.URL+"/v1/campaign", spec), "/v1/campaign")
	s.mu.Lock()
	jobs := len(s.campaigns)
	s.mu.Unlock()
	if jobs != 0 {
		t.Fatalf("rejected campaign still registered %d job(s)", jobs)
	}
}

func TestShardLeaseRejectsNAboveMaxN(t *testing.T) {
	fc := newFakeCoordinator(t)
	s, ts := newTestServer(t, Config{MaxN: admissionCap, ShardWorkers: 1})
	spec := shardSpec()
	spec.Points[0].Trial.N = admissionCap + 1
	expectCapRejection(t, postJSON(t, ts.URL+"/v1/shard/lease", offerFor(spec, fc.ts.URL, 1000)), "shard lease")
	s.mu.Lock()
	st := s.shardStats
	s.mu.Unlock()
	if st.Accepted != 0 || st.Active != 0 {
		t.Fatalf("rejected offer charged a shard slot: %+v", st)
	}
}
