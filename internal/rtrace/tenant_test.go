package rtrace_test

// Tenant annotations end to end: real multi-tenant runs stamped with
// EvJobAnnotate via grt.SubmitOpts replay through the verifier
// (annotations must not break Lemma 3.1 checking), carry exactly one
// (tenant, job tag) record per tagged submission — none for the untagged
// job — and come out of the Chrome export with their tags.

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"dfdeques/internal/grt"
	"dfdeques/internal/rtrace"
)

func TestTenantAnnotateFilterSummarize(t *testing.T) {
	rec := rtrace.NewRecorder(2, 1<<18)
	rt, err := grt.New(grt.Config{
		Workers: 2, Sched: grt.DFDeques, K: 256, Seed: 11, Probe: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Tenant 7 runs two tree jobs, tenant 9 one chain, plus one untagged
	// job that must carry no annotation.
	j1, err := rt.SubmitWith(ctx, tree(4), grt.SubmitOpts{TenantTag: 7, JobTag: 101})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := rt.SubmitWith(ctx, tree(3), grt.SubmitOpts{TenantTag: 7, JobTag: 102})
	if err != nil {
		t.Fatal(err)
	}
	j3, err := rt.SubmitWith(ctx, chain(8), grt.SubmitOpts{TenantTag: 9, JobTag: 201})
	if err != nil {
		t.Fatal(err)
	}
	j4, err := rt.Submit(ctx, tree(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range []*grt.Job{j1, j2, j3} {
		if _, err := j.Wait(); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if _, err := j4.Wait(); err != nil {
		t.Fatalf("untagged job: %v", err)
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if rec.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; raise the buffer", rec.Dropped())
	}

	// The annotated stream still replay-verifies: EvJobAnnotate rides
	// the scheduler lane and must be transparent to the ordering checks.
	rep, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped())
	if err != nil {
		t.Fatalf("annotated stream failed verification: %v", err)
	}
	if rep.Jobs != 4 {
		t.Fatalf("replay saw %d jobs, want 4", rep.Jobs)
	}

	// One annotation per tagged submission, carrying (tenant, job tag).
	evs := rec.Events()
	tags := map[int64]int64{} // tenant tag -> count
	jobTags := map[int64]bool{}
	for _, e := range evs {
		if e.Kind != rtrace.EvJobAnnotate {
			continue
		}
		tags[e.B]++
		jobTags[e.C] = true
	}
	if tags[7] != 2 || tags[9] != 1 || len(tags) != 2 {
		t.Fatalf("annotation counts by tenant = %v, want {7:2 9:1}", tags)
	}
	for _, want := range []int64{101, 102, 201} {
		if !jobTags[want] {
			t.Fatalf("job tag %d missing from annotations (got %v)", want, jobTags)
		}
	}

	// The Chrome export names the annotation so tenant lanes are
	// greppable in the viewer.
	var buf bytes.Buffer
	if err := rtrace.Export(&buf, rec.Meta(), evs, rec.Dropped()); err != nil {
		t.Fatalf("Export: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, "job-annotate") {
		t.Fatal("export missing job-annotate instants")
	}
	if !strings.Contains(out, `"tenant":7`) && !strings.Contains(out, `"tenant": 7`) {
		t.Fatal("export missing tenant tag on annotation")
	}
}
