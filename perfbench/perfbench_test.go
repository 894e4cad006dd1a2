package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fleet"
	"repro/internal/stable"
)

// The self-tests run every workload at tiny sizes and plant one fault per
// correctness gate, so a gate that stopped tripping shows here.

func tinyOptions(t *testing.T, workload string, traced bool) options {
	return options{workload: workload, seed: 7, seconds: 1, traced: traced, workdir: t.TempDir(), tiny: true}
}

func TestTinyWorkloadsPassGatesAndReportEveryMetric(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			out, err := measure(tinyOptions(t, w.Name, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !out.correct() {
				t.Errorf("%s traced=%v: gates %v, %d/%d ops failed %v", w.Name, traced, out.Gates, out.Failed, out.Attempted, out.FailedByCode)
			}
			res, err := resultFor(spec, out)
			if err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
				continue
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Errorf("%s traced=%v: %v: %+v", w.Name, traced, err, res)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
				t.Errorf("%s: result line %s has keys %v", w.Name, line, keys)
			}
			if res.Attempted < 1 {
				t.Errorf("%s: attempted %d", w.Name, res.Attempted)
			}
		}
	}
}

func TestTamperedAckFailsEquivalence(t *testing.T) {
	h := fleet.NewHost(fleet.Config{Shards: 1, RetainFrames: 256})
	defer h.Close()
	ss := fleet.SpawnSpec{ID: "t0", Preset: "threeconfig", Seed: 3, Frames: 120}
	if _, err := h.Spawn(ss); err != nil {
		t.Fatal(err)
	}
	inj := fleet.Injection{Kind: "env", Factor: "alt2", Value: "failed"}
	applied, err := h.Inject("t0", inj)
	if err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, h, "t0")

	good := map[string]*tenantView{"t0": {acks: []fleet.AckedInjection{{Inj: inj, Applied: applied}}}}
	var r fleetRun
	r.checkEquivalence(h, []string{"t0"}, good, "test")
	r.checkProperties(h, []string{"t0"}, good)
	if len(r.gates) != 0 {
		t.Fatalf("true acks failed the gates: %v", r.gates)
	}
	bad := map[string]*tenantView{"t0": {acks: []fleet.AckedInjection{{Inj: inj, Applied: applied + 1}}}}
	r.checkEquivalence(h, []string{"t0"}, bad, "test")
	if len(r.gates) != 1 {
		t.Fatalf("tampered ack frame: gates %v, want one equivalence failure", r.gates)
	}
}

func TestNon2xxResponseIsCountedAsFailed(t *testing.T) {
	h := fleet.NewHost(fleet.Config{Shards: 1})
	env, err := serveHost(h, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer env.stop()
	if _, err := h.Spawn(fleet.SpawnSpec{ID: "t0", Preset: "threeconfig", Seed: 1, Frames: 16}); err != nil {
		t.Fatal(err)
	}
	waitCompleted(t, h, "t0")
	var log opLog
	body := []byte(`{"kind":"env","factor":"alt2","value":"ok"}`)
	status, _, err := env.cl.do(http.MethodPost, "/systems/t0/inject", body)
	if log.record("inject", status, err) {
		t.Fatalf("inject into a completed tenant succeeded (status %d)", status)
	}
	status, _, err = env.cl.do(http.MethodGet, "/systems/nope", nil)
	log.record("status", status, err)
	if log.attempted != 2 || log.failed != 2 || log.byCode["inject:400"] != 1 || log.byCode["status:404"] != 1 {
		t.Fatalf("log = %+v, want inject:400 and status:404 counted", log)
	}
}

func TestDroppedTenantFailsRecovery(t *testing.T) {
	p := churnPlan(tinyOptions(t, "fleet-churn-durable", false))
	p.crash = func(replicas []*stable.MemMedium) {
		for _, m := range replicas {
			for _, k := range m.Keys() {
				if strings.Contains(k, "t0000") && strings.HasSuffix(k, "spawn") {
					m.Delete(k)
				}
			}
		}
	}
	r, err := runFleet(p, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.gates) == 0 {
		t.Fatal("a tenant dropped from the manifest passed the recovery gates")
	}
	found := false
	for _, g := range r.gates {
		found = found || strings.Contains(g, "t0000")
	}
	if !found {
		t.Fatalf("no gate names the dropped tenant: %v", r.gates)
	}
}

func TestCampaignGatesTripOnErrorsAndDigestDrift(t *testing.T) {
	m := campaignPlan{seeds: 1, frames: 10}.matrix(1)
	results := make([]campaign.Result, 0)
	for _, run := range m.Expand() {
		results = append(results, campaign.Result{Run: run})
	}
	var r campaignRun
	d, err := r.checkReport(m, results, "")
	if err != nil || len(r.gates) != 0 {
		t.Fatalf("clean results: %v %v", err, r.gates)
	}
	results[0].Reconfigs++
	results[1].Err = "boom"
	results[2].SilentWrongData = 1
	if _, err := r.checkReport(m, results, d); err != nil {
		t.Fatal(err)
	}
	if r.failed != 2 || len(r.gates) != 3 {
		t.Fatalf("failed %d gates %v, want 2 failed runs and a digest mismatch", r.failed, r.gates)
	}
}

func TestModelRatios(t *testing.T) {
	if got := sweepMS(300, 8, 1, 240_000); got != 10 {
		t.Errorf("sweepMS = %v, want 10", got)
	}
	if got := fpsModelRatio(100_000, 1, 5); got != 0.5 {
		t.Errorf("fpsModelRatio = %v, want 0.5", got)
	}
	if got := fpsModelRatio(400_000, 2, 5); got != 1 {
		t.Errorf("fpsModelRatio two units = %v, want 1", got)
	}
	if got := recoverModelRatio(3, 300, 9, 300); got != 1 {
		t.Errorf("recoverModelRatio = %v, want 1", got)
	}
	s := []slice{
		{on: false, work: 100, d: time.Second}, {on: true, work: 90, d: time.Second},
		{on: true, work: 45, d: time.Second / 2}, {on: false, work: 50, d: time.Second / 2},
		{on: false, work: 10, d: time.Second}, {on: true, work: 9.5, d: time.Second},
	}
	if got := overheadPct(s); got < 9.999 || got > 10.001 {
		t.Errorf("overheadPct = %v, want 10", got)
	}
}

func TestQuantilesAndRoutes(t *testing.T) {
	var d durations
	for i := 10; i >= 1; i-- {
		d = append(d, time.Duration(i))
	}
	if d.quantile(0.5) != 5 || d.quantile(0.95) != 10 || d.quantile(0.1) != 1 {
		t.Errorf("quantiles %v %v %v", d.quantile(0.5), d.quantile(0.95), d.quantile(0.1))
	}
	for path, want := range map[string]string{
		"POST /systems": "spawn", "GET /systems": "list", "GET /stats": "stats",
		"GET /systems/t1": "status", "POST /systems/t1/inject": "inject",
		"GET /systems/t1/journal": "journal", "GET /systems/t1/trace/7": "trace",
	} {
		method, p, _ := strings.Cut(path, " ")
		if got := routeOf(method, p); got != want {
			t.Errorf("routeOf(%s) = %s, want %s", path, got, want)
		}
	}
}

func TestBadArgumentsExitWithoutResult(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope", "--benchmark", "../BENCHMARK.json"},
		{"--workload", "fleet-quiet", "--trace", "2", "--benchmark", "../BENCHMARK.json"},
		{"--workload", "fleet-quiet", "--benchmark", "missing.json"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func waitCompleted(t *testing.T, h *fleet.Host, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if tn, ok := h.Get(id); ok && tn.Status().State == fleet.StateCompleted {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("tenant %s did not complete", id)
}
