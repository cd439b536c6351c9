package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"mobilenet/internal/trace"
)

// readTrace loads a recorded trajectory file.
func readTrace(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// runWithin runs mobisim with args, failing the test when the run errors or
// has not returned by the deadline (a step loop without a cap never would).
func runWithin(t *testing.T, deadline time.Duration, args ...string) string {
	t.Helper()
	return string(captureStdout(t, func() error {
		done := make(chan error, 1)
		go func() { done <- run(args) }()
		select {
		case err := <-done:
			return err
		case <-time.After(deadline):
			return fmt.Errorf("run(%v) still running after %v", args, deadline)
		}
	}))
}

// TestTraceRecordingHonoursStepCap: -trace recording steps through the
// driver under -max-steps, so a capped recording holds exactly the cap's
// steps and reports that the broadcast did not complete.
func TestTraceRecordingHonoursStepCap(t *testing.T) {
	path := t.TempDir() + "/capped.mtrace"
	out := runWithin(t, 10*time.Second,
		"-n", "256", "-k", "4", "-r", "0", "-seed", "3", "-max-steps", "5", "-trace", path)
	if !strings.Contains(out, "DID NOT COMPLETE within 5 steps") {
		t.Errorf("capped recording not reported as incomplete:\n%s", out)
	}
	if steps := readTrace(t, path).Steps(); steps != 5 {
		t.Errorf("capped recording holds %d steps, want 5", steps)
	}
}

// TestTraceRecordingOfFrozenReplayStops: replaying a zero-step recording
// freezes every agent, so at r=0 the broadcast never completes. Recording
// that replay must stop at the engine's default step cap (64 n/sqrt(k)
// (log2 n + 1) = 73728 steps here) instead of looping forever.
func TestTraceRecordingOfFrozenReplayStops(t *testing.T) {
	dir := t.TempDir()
	frozen := dir + "/frozen.mtrace"
	// At r=20 the four agents share one component at t=0: T_B = 0, so the
	// recording holds no steps.
	runWithin(t, 10*time.Second, "-n", "256", "-k", "4", "-r", "20", "-seed", "3", "-trace", frozen)
	if steps := readTrace(t, frozen).Steps(); steps != 0 {
		t.Fatalf("setup recording holds %d steps, want 0", steps)
	}
	replay := dir + "/replay.mtrace"
	out := runWithin(t, 10*time.Second,
		"-n", "256", "-k", "4", "-r", "0", "-seed", "3", "-mobility", "trace:"+frozen, "-trace", replay)
	if !strings.Contains(out, "DID NOT COMPLETE within 73728 steps") {
		t.Errorf("frozen replay not reported as capped:\n%s", out)
	}
	if steps := readTrace(t, replay).Steps(); steps != 73728 {
		t.Errorf("frozen replay recording holds %d steps, want 73728", steps)
	}
}

// TestTraceReplayHonoursStepCap: the trace-mobility path passes -max-steps
// to the engine, so a replay capped below its recorded T_B = 136 reports
// that it did not complete.
func TestTraceReplayHonoursStepCap(t *testing.T) {
	path := t.TempDir() + "/full.mtrace"
	out := runWithin(t, 10*time.Second, "-n", "256", "-k", "4", "-r", "0", "-seed", "3", "-trace", path)
	if !strings.Contains(out, "broadcast time T_B = 136") {
		t.Fatalf("setup recording did not complete at T_B = 136:\n%s", out)
	}
	out = runWithin(t, 10*time.Second,
		"-n", "256", "-k", "4", "-r", "0", "-seed", "3", "-max-steps", "5", "-mobility", "trace:"+path)
	if !strings.Contains(out, "DID NOT COMPLETE within 5 steps") {
		t.Errorf("replay ignored -max-steps:\n%s", out)
	}
}
