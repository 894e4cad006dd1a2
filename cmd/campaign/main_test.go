package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/avionics"
	"repro/internal/campaign"
	"repro/internal/spectest"
)

// TestPresetText runs the s1 preset small and checks the table and the
// clean exit.
func TestPresetText(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-preset", "s1", "-runs", "1", "-frames", "120", "-workers", "2"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v\nstderr:\n%s", err, errOut.String())
	}
	for _, want := range []string{"campaign s1-storage-faults", "shielded", "defeat", "totals:", "recovery latency"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "2/2") {
		t.Errorf("progress lines missing final tick:\n%s", errOut.String())
	}
}

// TestJSONDeterministicAcrossWorkers is the tool-level determinism gate:
// the same matrix at different worker counts writes byte-identical report
// files.
func TestJSONDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var reports [][]byte
	for _, workers := range []string{"1", "4"} {
		path := filepath.Join(dir, "report."+workers+".json")
		var out, errOut bytes.Buffer
		err := run([]string{"-preset", "s1", "-runs", "2", "-frames", "120",
			"-workers", workers, "-json", "-quiet", "-out", path}, &out, &errOut)
		if err != nil {
			t.Fatalf("workers=%s: %v", workers, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, data)
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Fatal("reports differ between -workers 1 and -workers 4")
	}
	var decoded struct {
		Totals struct {
			Runs         int   `json:"runs"`
			Violations   int   `json:"sp_violations"`
			SilentWrong  int64 `json:"silent_wrong_data"`
			WindowFrames struct {
				Count int64 `json:"count"`
			} `json:"window_frames"`
		} `json:"totals"`
	}
	if err := json.Unmarshal(reports[0], &decoded); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if decoded.Totals.Runs != 4 || decoded.Totals.Violations != 0 || decoded.Totals.SilentWrong != 0 {
		t.Errorf("totals = %+v", decoded.Totals)
	}
	if decoded.Totals.WindowFrames.Count == 0 {
		t.Error("no recovery-latency observations in aggregate")
	}
}

// TestMatrixFile runs a matrix from a JSON config, with a flag override.
func TestMatrixFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	matrix := `{
		"name": "custom",
		"seeds": 3,
		"frames": 100,
		"arms": [
			{"name": "light", "kind": "storage", "replicas": 3,
			 "faults": {"TornWriteRate": 0.01, "BitRotRate": 0.02, "StuckReadRate": 0.01}}
		]
	}`
	if err := os.WriteFile(path, []byte(matrix), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	// -runs 1 overrides the file's three seeds.
	err := run([]string{"-matrix", path, "-runs", "1", "-quiet"}, &out, &errOut)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "campaign custom: 1 runs") {
		t.Errorf("override not applied:\n%s", out.String())
	}
}

// TestBadMatrixRejectedUpFront pins the up-front validation path: a
// defective arm fails before any frames are spent.
func TestBadMatrixRejectedUpFront(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	matrix := `{"seeds": 1, "frames": 50, "arms": [{"name": "bad", "kind": "quantum"}]}`
	if err := os.WriteFile(path, []byte(matrix), 0o644); err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	err := run([]string{"-matrix", path, "-quiet"}, &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "unknown kind") {
		t.Fatalf("err = %v, want unknown kind", err)
	}
}

// TestDeprecatedSeedsAlias keeps the old -seeds spelling working.
func TestDeprecatedSeedsAlias(t *testing.T) {
	var out, errOut bytes.Buffer
	err := run([]string{"-preset", "s1", "-seeds", "1", "-frames", "100", "-quiet"}, &out, &errOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "2 runs (1 seeds") {
		t.Errorf("alias not applied:\n%s", out.String())
	}
}

// TestChaosSmokeMatrix loads the committed chaos-storm matrix the CI smoke
// runs, validates it, and pins its shape: one seed-7 storm of 8 tenants
// over 120 frames, with 2 crashes, 2 tenant panics and 3 torn writes per
// crash. internal/campaign's TestChaosRun runs storms of this kind.
func TestChaosSmokeMatrix(t *testing.T) {
	fs := flag.NewFlagSet("campaign", flag.ContinueOnError)
	m, err := loadMatrix(fs, "testdata/chaos-smoke.json", "", 0, 0, 0, 0, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.BaseSeed != 7 || m.Seeds != 1 || m.Frames != 120 || len(m.Arms) != 1 {
		t.Fatalf("matrix = seed %d x %d seeds, %d frames, %d arms; want seed 7 x 1, 120 frames, 1 arm",
			m.BaseSeed, m.Seeds, m.Frames, len(m.Arms))
	}
	a := m.Arms[0]
	if a.Kind != campaign.KindChaos || a.FleetTenants != 8 || a.Crashes != 2 || a.TenantPanics != 2 || a.TornWrites != 3 {
		t.Fatalf("arm = %+v, want a chaos storm of 8 tenants, 2 crashes, 2 panics, 3 torn writes", a)
	}
}

// TestServeExportedRun pins -serve: it publishes the run -ring-out
// exports, byte for byte on /journal, with that run's metrics on /metrics
// and its system's frame length in the virtual-time header.
func TestServeExportedRun(t *testing.T) {
	tests := []struct {
		preset   string
		frameLen time.Duration
	}{
		{"s1", spectest.ThreeConfig().FrameLen},
		{"s2", avionics.FrameLength},
	}
	for _, tt := range tests {
		t.Run(tt.preset, func(t *testing.T) {
			ringPath := filepath.Join(t.TempDir(), "ring.jsonl")
			get := func(url string) []byte {
				t.Helper()
				resp, err := http.Get(url)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: %d %v", url, resp.StatusCode, err)
				}
				return body
			}
			served := false
			defer func(orig func(string)) { awaitStop = orig }(awaitStop)
			awaitStop = func(addr string) {
				served = true
				ring, err := os.ReadFile(ringPath)
				if err != nil {
					t.Fatal(err)
				}
				if journal := get("http://" + addr + "/journal"); !bytes.Equal(journal, ring) {
					t.Errorf("/journal differs from the -ring-out journal (%d vs %d bytes)", len(journal), len(ring))
				}
				var frame, vtMillis int64
				metrics := get("http://" + addr + "/metrics")
				if _, err := fmt.Sscanf(string(metrics), "# frame %d virtual_time_ms %d", &frame, &vtMillis); err != nil {
					t.Fatalf("metrics header: %v\n%s", err, metrics)
				}
				if want := (time.Duration(frame) * tt.frameLen).Milliseconds(); frame == 0 || vtMillis != want {
					t.Errorf("frame %d virtual_time_ms %d, want frame > 0 and %d", frame, vtMillis, want)
				}
				if !strings.Contains(string(metrics), "scram_") {
					t.Errorf("served metrics carry no registry series:\n%s", metrics)
				}
			}
			var out, errOut bytes.Buffer
			err := run([]string{"-preset", tt.preset, "-runs", "1", "-frames", "120", "-quiet",
				"-ring-out", ringPath, "-serve", "127.0.0.1:0"}, &out, &errOut)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, errOut.String())
			}
			if !served {
				t.Fatal("-serve did not serve")
			}
		})
	}
}
