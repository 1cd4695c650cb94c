#!/bin/sh
# Tier-1 verification (see ROADMAP.md): build, vet, full test suite, and
# a race-detector pass over the concurrency-bearing packages. The -race
# pass is not optional — the runtime's fine-grained synchronization is
# exactly the kind of code whose bugs only the race detector and the
# stress tests in internal/grt/race_test.go surface.
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The runtime, the simulator and the replay verifier read the 1DF order off
# their fork trees through dag.Before. internal/dag imports no package of
# this module, so the comparator on the runtime's path holds no state and
# pulls in no layer.
if go list -f '{{join .Imports "\n"}}' ./internal/dag | grep -q '^dfdeques/'; then
    echo "internal/dag imports a package of this module" >&2
    exit 1
fi
# The deque is one processor's deque and nothing else: R, ownership and
# trace IDs are policy.DFD's. An import of another package of this module
# means scheduler state is creeping back into it.
if go list -f '{{join .Imports "\n"}}' ./internal/deque | grep -q '^dfdeques/'; then
    echo "internal/deque imports a package of this module" >&2
    exit 1
fi
# R's members are the policy's: no package but internal/policy builds
# deques into a ready structure of its own (tests aside).
importers=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... | grep ' dfdeques/internal/deque\( \|$\)' | cut -d' ' -f1 | grep -v '^dfdeques/internal/policy$' || true)
if [ -n "$importers" ]; then
    echo "internal/deque imported outside internal/policy: $importers" >&2
    exit 1
fi
# staticcheck when available (CI installs it; local runs skip silently so
# the script stays dependency-free).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test ./...
# The simulator's output matrix (scripts/simmatrix.sh: 720 dfdsim -json
# lines, 92 lines of dfdlab -csv, then 770 lines of two dfdtrace -gantt
# schedules, each replay-verified) is pinned by its sha256 in
# scripts/simmatrix.sha256. A change meant to keep the simulator's
# schedules must leave it as it is; a change that moves lines on purpose
# updates the file and says which lines moved and why.
matrix=$(mktemp)
./scripts/simmatrix.sh > "$matrix"
sum=$(sha256sum < "$matrix" | cut -d' ' -f1)
echo "simulator matrix: $(wc -l < "$matrix") lines, sha256 $sum"
rm -f "$matrix"
if [ "$sum" != "$(cat scripts/simmatrix.sha256)" ]; then
    echo "simulator matrix differs from scripts/simmatrix.sha256" >&2
    exit 1
fi
go test -race ./internal/grt/... ./internal/deque/... ./internal/policy/... ./internal/rtrace/... ./internal/serve/...
# Serving-layer soak (short mode): 8 tenants over HTTP with one hog that
# mixes never-fitting whales with jobs that fit its budget, asserting
# isolation (cost-shed 429s for the hog only, its fitting jobs still
# admitted and never budget-killed) and a leak-free drain; then the
# Submit-into-a-busy-R request mix
# at the default MaxInflight. DFDSERVE_SOAK_SECS=120 runs the long ones
# (600 with -run TestServeSoakSubmitMix is ROADMAP 1a's acceptance run).
go test -race -short -run TestServeSoak -count=1 ./internal/serve/
# Lifecycle stress: cancellation, shutdown and drain paths repeated under
# the race detector — the park/wake, poison-sweep and job-retirement
# races only show up across many runs.
go test -race -run 'Cancel|Shutdown|Drain' -count=5 ./internal/grt/...
# Oversubscription: more Ps than cores and two busy-loop hogs alongside,
# so workers are preempted mid scheduling event. That is what exposed the
# fork-priority bug the replay verifier now guards (steals landing on a
# deque whose owner was mid inline fork/join chain); 20 runs of every
# traced, verified test, of the Submit-into-a-busy-R mix, of the two
# fork-tree-order tests (no contended lock on the fork path; no frame of
# a canceled job recycled under a live descendant's priority walk), of
# the deadlock detector's three (two real deadlocks found; a Submit
# racing the last worker's park never mistaken for one), and of the
# give-up tests (a thread that published itself racing thieves for its
# own deque, with and without a cancel or an aborting Shutdown landing in
# that window; the fused give-up's one spine section read off the traces
# and counted), of the block tests (a wake or a cancel landing between a
# thread's queuing as a waiter and its hand-back of the worker), of ready
# work left while the one unparked worker runs a thread that publishes
# nothing (idle workers must not all park on it), of the lost-wakeup
# hammer (bursts of Submits into a pool gone fully idle, each revived by
# one signal and the hunters' hand-offs), of the trace-derived
# deque high-water against the pool's and the pinned one-worker streams,
# with the policy's own: thieves racing GiveUpSteal and the
# first pushes and pops on a taken-over deque under the Lemma 3.1 checker,
# the ready count never negative, the remembered steal handed over exactly
# once; and of the job lifecycle without per-job goroutines: a context
# canceled after its job ended (a no-op), a cancel racing a job that ends
# at once, no goroutine per submitted or admitted job, and drains that
# finish or fail every job.
hogs=
trap 'kill $hogs' EXIT
for i in 1 2; do
    sh -c 'while :; do :; done' &
    hogs="$hogs $!"
done
GOMAXPROCS=8 go test -race -count=20 -run 'TestVerify|TestScenario|TestSubmitConcurrentWithRunningJob|TestForkPathMutexFree|TestCancelNeverPoolsPoisonedFrames|Deadlock|TestGiveUp|TestBlockRacesItsWake|TestBlockCancelRacesItsWake|TestReadyWorkNeverWaitsOnABusyWorker|TestGrtParkBackoffBursts|TestTraceDequeHighWater|TestOneWorkerTraceIsPinned|TestSharedGiveUpSteal|TestSharedPublish|TestSharedTakeover|TestDFDGiveUp|TestCancelAfterFinishIsANoOp|TestCancelRacesJobEnd|TestSubmitStartsNoWatcherGoroutine|TestAdmittedJobsStartNoGoroutines|TestDrainFinishesOrFailsEveryJob' ./internal/rtrace/ ./internal/grt/ ./internal/policy/ ./internal/serve/
# Size gate (ROADMAP item 6): non-test Go outside bench/.
echo "non-test Go lines outside bench/: $(find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l)"
