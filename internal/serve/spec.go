package serve

// The job-spec wire format: a submission is either a named irregular
// workload scenario (internal/workload), a uniform binary fork tree, or
// a small declarative thread program that lowers onto dag.ThreadSpec and
// runs through the same interpreter as the simulator's programs
// (grt.SpecBody). Everything is validated and size-bounded before it
// touches the runtime — a tenant cannot submit an unboundedly large
// program shape, only unboundedly many bounded jobs, which is what
// admission control and budgets govern.

import (
	"context"
	"fmt"

	"dfdeques/internal/dag"
	"dfdeques/internal/grt"
	"dfdeques/internal/serve/api"
	"dfdeques/internal/workload"
)

// Submission shape bounds.
const (
	maxTreeDepth  = 14 // ≤ 16384 leaves per tree job
	maxSpecInstrs = 4096
	maxSpecDepth  = 64
	maxScale      = 64
	maxAllocBytes = 1 << 30
	maxWorkUnits  = 1 << 20
	maxWorkScale  = 4096 // spin iterations per work unit
)

// The wire types live in internal/serve/api (shared with the typed
// client); the aliases keep the in-package vocabulary.
type (
	// JobRequest is the wire format of one submission (POST /v1/jobs).
	JobRequest = api.JobRequest
	// SpecNode is one thread of a declarative program.
	SpecNode = api.SpecNode
)

// jobResult is what a completed job reports back.
type jobResult struct {
	Checksum string        `json:"checksum,omitempty"`
	Stats    *grt.JobStats `json:"stats,omitempty"`
}

// runnable is a compiled submission: a kind tag for display, the
// admission price (predicted live-memory cost; 0 = exempt), and a driver
// that runs it through a Submitter (the tenant's budget-attaching one).
type runnable struct {
	kind string
	cost int64
	run  func(ctx context.Context, sub workload.Submitter) (jobResult, error)
}

// compile validates a request's shape and returns its driver, priced for
// cost-based admission against threshold k (the runtime's K). Errors are
// client errors (HTTP 400).
func compile(req JobRequest, k int64) (runnable, error) {
	set := 0
	if req.Scenario != "" {
		set++
	}
	if req.Tree != nil {
		set++
	}
	if req.Spec != nil {
		set++
	}
	if set != 1 {
		return runnable{}, fmt.Errorf("exactly one of scenario, tree, spec must be set (got %d)", set)
	}
	if req.WorkScale < 0 || req.WorkScale > maxWorkScale {
		return runnable{}, fmt.Errorf("work_scale must be in [0, %d], got %d", maxWorkScale, req.WorkScale)
	}
	switch {
	case req.Scenario != "":
		return compileScenario(req)
	case req.Tree != nil:
		return compileTree(req, k)
	default:
		return compileSpec(req, k)
	}
}

func compileScenario(req JobRequest) (runnable, error) {
	sc, ok := workload.ScenarioByName(req.Scenario)
	if !ok {
		return runnable{}, fmt.Errorf("unknown scenario %q", req.Scenario)
	}
	if req.Scale < 0 || req.Scale > maxScale {
		return runnable{}, fmt.Errorf("scale must be in [0, %d], got %d", maxScale, req.Scale)
	}
	cfg := workload.ScenarioConfig{Seed: req.Seed, Scale: req.Scale}
	return runnable{
		kind: "scenario:" + sc.Name,
		run: func(ctx context.Context, sub workload.Submitter) (jobResult, error) {
			sum, err := sc.Run(ctx, sub, cfg)
			if err != nil {
				return jobResult{}, err
			}
			if want := sc.Expect(cfg); sum != want {
				return jobResult{}, fmt.Errorf("scenario %s checksum mismatch: got %#x, want %#x", sc.Name, sum, want)
			}
			return jobResult{Checksum: fmt.Sprintf("%#x", sum)}, nil
		},
	}, nil
}

func compileTree(req JobRequest, k int64) (runnable, error) {
	tr := *req.Tree
	if tr.Depth < 0 || tr.Depth > maxTreeDepth {
		return runnable{}, fmt.Errorf("tree depth must be in [0, %d], got %d", maxTreeDepth, tr.Depth)
	}
	if tr.Alloc < 0 || tr.Alloc > maxAllocBytes {
		return runnable{}, fmt.Errorf("tree alloc must be in [0, %d], got %d", maxAllocBytes, tr.Alloc)
	}
	if tr.Work < 0 || tr.Work > maxWorkUnits {
		return runnable{}, fmt.Errorf("tree work must be in [0, %d], got %d", maxWorkUnits, tr.Work)
	}
	leaf := dag.NewThread("leaf")
	if tr.Alloc > 0 {
		leaf.Alloc(tr.Alloc)
	}
	if tr.Work > 0 {
		leaf.Work(tr.Work)
	}
	if tr.Alloc > 0 {
		leaf.Free(tr.Alloc)
	}
	spec := leaf.Spec()
	for d := 0; d < tr.Depth; d++ {
		spec = dag.Par2("node", spec, spec) // specs are immutable and shareable
	}
	return specRunnable(fmt.Sprintf("tree:d%d", tr.Depth), spec, req.WorkScale, k)
}

func compileSpec(req JobRequest, k int64) (runnable, error) {
	spec, _, err := lowerSpec(req.Spec, 0, 0)
	if err != nil {
		return runnable{}, err
	}
	return specRunnable("spec", spec, req.WorkScale, k)
}

// lowerSpec converts the wire tree into a dag.ThreadSpec, enforcing the
// instruction and nesting bounds; dag.Validate (inside grt.SpecBody)
// then enforces structure (join/fork pairing, positive work).
func lowerSpec(node *SpecNode, depth, sofar int) (*dag.ThreadSpec, int, error) {
	if node == nil {
		return nil, 0, fmt.Errorf("spec: nil thread node")
	}
	if depth > maxSpecDepth {
		return nil, 0, fmt.Errorf("spec: fork nesting exceeds %d", maxSpecDepth)
	}
	spec := &dag.ThreadSpec{Label: node.Label}
	count := sofar
	for i, in := range node.Instrs {
		count++
		if count > maxSpecInstrs {
			return nil, 0, fmt.Errorf("spec: more than %d instructions", maxSpecInstrs)
		}
		di := dag.Instr{N: in.N, Blk: dag.BlockID(in.Blk), TouchBytes: in.Touch, Lock: dag.LockID(in.Lock)}
		switch in.Op {
		case "work":
			di.Op = dag.OpWork
			if in.N <= 0 || in.N > maxWorkUnits {
				return nil, 0, fmt.Errorf("spec: %s instr %d: work n must be in [1, %d], got %d", node.Label, i, maxWorkUnits, in.N)
			}
		case "alloc", "free":
			di.Op = dag.OpAlloc
			if in.Op == "free" {
				di.Op = dag.OpFree
			}
			if in.N < 0 || in.N > maxAllocBytes {
				return nil, 0, fmt.Errorf("spec: %s instr %d: %s bytes must be in [0, %d], got %d", node.Label, i, in.Op, maxAllocBytes, in.N)
			}
		case "fork":
			di.Op = dag.OpFork
			child, n, err := lowerSpec(in.Child, depth+1, count)
			if err != nil {
				return nil, 0, err
			}
			di.Child = child
			count = n
		case "join":
			di.Op = dag.OpJoin
		case "acquire":
			di.Op = dag.OpAcquire
		case "release":
			di.Op = dag.OpRelease
		default:
			return nil, 0, fmt.Errorf("spec: %s instr %d: unknown op %q", node.Label, i, in.Op)
		}
		spec.Instrs = append(spec.Instrs, di)
	}
	return spec, count, nil
}

// specRunnable compiles a lowered program into the driver of its one
// run. grt.SpecBody validates the structure (fork/join pairing, positive
// work) here, so a malformed program is a 400, not a failed job, and the
// run itself validates nothing.
func specRunnable(kind string, spec *dag.ThreadSpec, workScale int, k int64) (runnable, error) {
	body, err := grt.SpecBody(spec, workScale)
	if err != nil {
		return runnable{}, err
	}
	return runnable{kind: kind, cost: price(spec, k), run: func(ctx context.Context, sub workload.Submitter) (jobResult, error) {
		j, err := sub.Submit(ctx, body)
		if err != nil {
			return jobResult{}, err
		}
		st, err := j.Wait()
		if err != nil {
			return jobResult{}, err
		}
		return jobResult{Stats: &st}, nil
	}}, nil
}
