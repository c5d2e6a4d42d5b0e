package main

import (
	"strings"
	"testing"
	"time"
)

func TestRunFlagsValidate(t *testing.T) {
	cases := []struct {
		name    string
		rf      runFlags
		wantErr string // substring; "" = valid
	}{
		{"defaults", runFlags{workers: 8}, ""},
		{"zero workers fall back in core", runFlags{}, ""},
		{"negative workers", runFlags{workers: -3}, "--workers"},
		{"negative limit", runFlags{limit: -1}, "--limit"},
		{"resume without checkpoint", runFlags{resume: true}, "--resume requires --checkpoint"},
		{"resume with checkpoint", runFlags{checkpoint: "ck.jsonl", resume: true}, ""},
		{"jsonl store", runFlags{storeSpec: "jsonl", checkpoint: "ck.jsonl"}, ""},
		{"mem store", runFlags{storeSpec: "mem"}, ""},
		{"sharded store with checkpoint", runFlags{storeSpec: "binary:4", checkpoint: "dir"}, ""},
		{"sharded store without checkpoint", runFlags{storeSpec: "binary:4"}, "shard directory"},
		{"retired sharded spec", runFlags{storeSpec: "sharded:4", checkpoint: "dir"}, "binary:4"},
		{"unknown store", runFlags{storeSpec: "bolt"}, "--store must be"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.rf.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", tc.rf, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%+v) = %v, want error containing %q", tc.rf, err, tc.wantErr)
			}
		})
	}
}

func TestServeFlagsValidate(t *testing.T) {
	valid := serveFlags{
		storeSpec: "jsonl", rps: 50, burst: 100, maxInflight: 256,
		requestTimeout: 15 * time.Second, cacheSize: 1024, drainTimeout: 10 * time.Second,
	}
	cases := []struct {
		name    string
		mutate  func(*serveFlags)
		wantErr string // substring; "" = valid
	}{
		{"defaults", func(*serveFlags) {}, ""},
		{"rate limiting disabled", func(sf *serveFlags) { sf.rps, sf.burst = 0, 0 }, ""},
		{"cache disabled", func(sf *serveFlags) { sf.cacheSize = 0 }, ""},
		{"sharded store", func(sf *serveFlags) { sf.storeSpec = "binary:4" }, ""},
		{"retired sharded spec", func(sf *serveFlags) { sf.storeSpec = "sharded:4" }, "binary:4"},
		{"unknown store", func(sf *serveFlags) { sf.storeSpec = "bolt" }, "--store must be"},
		{"mem store", func(sf *serveFlags) { sf.storeSpec = "mem" }, "persistent dataset"},
		{"negative rps", func(sf *serveFlags) { sf.rps = -1 }, "--rps"},
		{"negative burst", func(sf *serveFlags) { sf.burst = -1 }, "--burst"},
		{"zero inflight", func(sf *serveFlags) { sf.maxInflight = 0 }, "--max-inflight"},
		{"zero timeout", func(sf *serveFlags) { sf.requestTimeout = 0 }, "--request-timeout"},
		{"negative cache", func(sf *serveFlags) { sf.cacheSize = -1 }, "--cache-size"},
		{"zero drain", func(sf *serveFlags) { sf.drainTimeout = 0 }, "--drain-timeout"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sf := valid
			tc.mutate(&sf)
			err := sf.validate()
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validate(%+v) = %v, want nil", sf, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("validate(%+v) = %v, want error containing %q", sf, err, tc.wantErr)
			}
		})
	}
}
