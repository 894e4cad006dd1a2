package serve

import (
	"bytes"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/telemetry"
)

// testSnapshot builds a snapshot holding one complete reconfiguration
// trace plus an unrelated event.
func testSnapshot(t *testing.T) Snapshot {
	t.Helper()
	rec := telemetry.NewRecorder(64)
	book := telemetry.NewSpanBook(7, rec)
	sig := book.OpenPending(4, telemetry.SpanSignal, telemetry.Event{App: "mon"})
	book.OpenTrace(5, 4, telemetry.Event{From: "cruise", Config: "descent", Attrs: telemetry.Attrs{{Key: "bound", Val: 20}, {Key: "seq", Val: 1}}})
	book.ClosePending(5, sig, telemetry.Event{})
	h := book.OpenSpan(6, telemetry.SpanHalt, telemetry.Event{})
	book.CloseSpan(7, h, telemetry.SpanHalt, telemetry.Event{})
	book.CloseTrace(9, telemetry.Event{Attrs: telemetry.Attrs{{Key: "bound", Val: 20}, {Key: "margin", Val: 15}, {Key: "window", Val: 5}}})
	rec.Record(telemetry.Event{Frame: 2, Kind: telemetry.KindProcHalt, Host: "p9"})

	reg := telemetry.NewRegistry()
	reg.Counter("scram/triggers").Inc()
	reg.Histogram("scram/window_frames").Observe(5)

	return Snapshot{
		Frame:    10,
		FrameLen: 20 * time.Millisecond,
		Metrics:  reg.Snapshot(),
		Events:   rec.Events(),
	}
}

func startServer(t *testing.T, snap Snapshot) (*Server, string) {
	t.Helper()
	srv := New()
	srv.Publish(snap)
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, "http://" + addr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeMetrics(t *testing.T) {
	_, base := startServer(t, testSnapshot(t))
	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d: %s", code, body)
	}
	if !strings.Contains(body, "scram_triggers 1") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	if !strings.Contains(body, "# frame 10 virtual_time_ms 200") {
		t.Fatalf("/metrics missing virtual-time header:\n%s", body)
	}
}

func TestServeJournal(t *testing.T) {
	snap := testSnapshot(t)
	_, base := startServer(t, snap)
	code, body := get(t, base+"/journal")
	if code != http.StatusOK {
		t.Fatalf("/journal = %d", code)
	}
	events, err := telemetry.ReadJournal(strings.NewReader(body))
	if err != nil {
		t.Fatalf("journal does not parse: %v", err)
	}
	if len(events) != len(snap.Events) {
		t.Fatalf("journal has %d events, want %d", len(events), len(snap.Events))
	}

	code, body = get(t, base+"/journal?since_frame=5")
	if code != http.StatusOK {
		t.Fatalf("/journal?since_frame = %d", code)
	}
	filtered, err := telemetry.ReadJournal(strings.NewReader(body))
	if err != nil {
		t.Fatalf("filtered journal does not parse: %v", err)
	}
	for _, e := range filtered {
		if e.Frame < 5 {
			t.Fatalf("since_frame=5 returned frame %d", e.Frame)
		}
	}
	if len(filtered) >= len(events) {
		t.Fatalf("filter dropped nothing: %d of %d", len(filtered), len(events))
	}

	if code, _ := get(t, base+"/journal?since_frame=bogus"); code != http.StatusBadRequest {
		t.Fatalf("malformed since_frame = %d, want 400", code)
	}
}

// TestServeTraceMatchesReportRendering is the byte-identity contract CI
// leans on: the /trace/<id> body must equal BuildTraceReport rendered
// through cli.WriteJSON — the exact pair flightrec -trace -json uses.
func TestServeTraceMatchesReportRendering(t *testing.T) {
	snap := testSnapshot(t)
	_, base := startServer(t, snap)

	code, index := get(t, base+"/traces")
	if code != http.StatusOK {
		t.Fatalf("/traces = %d", code)
	}
	views := telemetry.AssembleTraces(snap.Events)
	var want []telemetry.TraceReport
	for _, tv := range views {
		if tv.ID != 0 {
			want = append(want, telemetry.BuildTraceReport(tv))
		}
	}
	if len(want) != 1 {
		t.Fatalf("fixture should hold exactly 1 trace, got %d", len(want))
	}
	var buf bytes.Buffer
	if err := cli.WriteJSON(&buf, want); err != nil {
		t.Fatal(err)
	}
	if index != buf.String() {
		t.Fatalf("/traces body diverges from cli.WriteJSON rendering:\n%s\nvs\n%s", index, buf.String())
	}

	code, body := get(t, base+"/trace/"+want[0].ID)
	if code != http.StatusOK {
		t.Fatalf("/trace/%s = %d: %s", want[0].ID, code, body)
	}
	buf.Reset()
	if err := cli.WriteJSON(&buf, want[0]); err != nil {
		t.Fatal(err)
	}
	if body != buf.String() {
		t.Fatalf("/trace body diverges from the flightrec rendering:\n%s\nvs\n%s", body, buf.String())
	}

	if code, _ := get(t, base+"/trace/ffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown trace = %d, want 404", code)
	}
	if code, _ := get(t, base+"/trace/zz"); code != http.StatusBadRequest {
		t.Fatalf("malformed trace id = %d, want 400", code)
	}
}

func TestServeBeforeFirstPublish(t *testing.T) {
	srv := New()
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()
	code, _ := get(t, "http://"+addr+"/metrics")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("unpublished /metrics = %d, want 503", code)
	}
}
