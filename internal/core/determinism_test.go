package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"
)

// TestPipelineDeterminismAcrossWorkerCounts is the acceptance bar for the
// stage-parallel engine: a serial run and a heavily parallel run over the
// same seed must produce identical records and funnel counts. Every layer
// of fan-out (domain workers, crawl stages, per-aspect annotation) folds
// its results back in a deterministic order, so worker count must never
// show up in the output.
func TestPipelineDeterminismAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) *Result {
		t.Helper()
		p, err := New(Config{Limit: 100, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := run(1)
	parallel := run(16)

	if serial.Funnel != parallel.Funnel {
		t.Errorf("funnel differs across worker counts:\n  workers=1:  %+v\n  workers=16: %+v",
			serial.Funnel, parallel.Funnel)
	}
	if len(serial.Records) != len(parallel.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(serial.Records), len(parallel.Records))
	}
	for i := range serial.Records {
		if !reflect.DeepEqual(serial.Records[i], parallel.Records[i]) {
			t.Errorf("record %d (%s) differs across worker counts", i, serial.Records[i].Domain)
		}
	}
}

// TestCheckpointResumeAfterCancel interrupts a checkpointed run mid-flight
// and verifies that (a) the resumed run skips the already-checkpointed
// domains, (b) no truncated record from the canceled processing poisons
// the checkpoint, and (c) the final result is identical to an
// uninterrupted run.
func TestCheckpointResumeAfterCancel(t *testing.T) {
	const limit = 30
	ckpt := t.TempDir() + "/checkpoint"

	// First run: cancel once a third of the domains have completed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := runCheckpointed(ctx, t, ckpt, Config{Limit: limit, Workers: 4,
		Progress: func(stage string, done, total int) {
			if stage == "process" && done >= 10 {
				cancel()
			}
		}})
	if err == nil {
		t.Fatal("canceled run should return an error")
	}

	prior := checkpointRecords(t, ckpt)
	if len(prior) == 0 || len(prior) >= limit {
		t.Fatalf("checkpoint has %d records after cancel, want 1..%d", len(prior), limit-1)
	}
	for _, rec := range prior {
		if rec.Domain == "" {
			t.Error("checkpoint contains a record with no domain")
		}
	}

	// Resume: only the domains missing from the checkpoint are processed.
	reprocessed := 0
	resumed, err := runCheckpointed(context.Background(), t, ckpt, Config{Limit: limit, Workers: 4,
		Progress: func(stage string, done, total int) {
			if stage == "process" {
				reprocessed++
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if want := limit - len(prior); reprocessed != want {
		t.Errorf("resume reprocessed %d domains, want %d", reprocessed, want)
	}

	// The stitched-together checkpoint must hold exactly a clean,
	// uninterrupted run's records: its export equals their JSONL.
	p3, err := New(Config{Limit: limit, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	clean, err := p3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Funnel != clean.Funnel {
		t.Errorf("funnel differs after resume:\n  resumed: %+v\n  clean:   %+v",
			resumed.Funnel, clean.Funnel)
	}
	if n := len(checkpointRecords(t, ckpt)); n != len(clean.Records) {
		t.Fatalf("record counts differ: %d vs %d", n, len(clean.Records))
	}
	if got, want := checkpointJSONL(t, ckpt), recordsJSONL(t, clean.Records); !bytes.Equal(got, want) {
		t.Errorf("checkpoint export differs from a clean run's records after resume (%d vs %d bytes)",
			len(got), len(want))
	}
}
