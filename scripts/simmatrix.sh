#!/bin/sh
# The simulator's output matrix: `dfdsim -json` over 5 schedulers × 9
# benchmarks × p {1,4,8,16} × seeds {1,2} × {plain, -realism}, one JSON line
# per run (the first 720 lines on stdout), then `dfdlab -csv` for the 12
# simulated experiments (92 lines; xcheck and scenarios run the live
# runtime and are left out), then two `dfdtrace -gantt` schedules: each
# run's recorded stream, one line per dispatch, fork, block, complete,
# quota exhaustion and dummy record, then its summary, its replay through
# rtrace.Verify and its Gantt chart (99 lines at the defaults, 671 at
# p = 4, K = 100, depth 4), 1,582 lines in all. WS
# is DFDeques(∞), so its 144 lines equal the DFD-inf lines by construction
# except for the `op` label; they stay so that the count and the layout do
# not move. The
# output's sha256 is pinned in scripts/simmatrix.sha256, which verify.sh
# and CI check: a change meant to keep the simulator's schedules leaves it
# byte-identical, and one that moves lines on purpose updates the pin and
# names the lines (diff against a checkout of the parent commit).
set -eu

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
trap 'rm -rf "$bin"' EXIT
go build -o "$bin/dfdsim" ./cmd/dfdsim
go build -o "$bin/dfdlab" ./cmd/dfdlab
go build -o "$bin/dfdtrace" ./cmd/dfdtrace

for s in DFD DFD-inf WS ADF FIFO; do
    for b in "Vol. Rend." "Dense MM" "Sparse MVM" FFTW FMM "Barnes Hut" "Decision Tr." synthetic lowerbound; do
        for p in 1 4 8 16; do
            for seed in 1 2; do
                "$bin/dfdsim" -json -sched "$s" -bench "$b" -procs "$p" -seed "$seed"
                "$bin/dfdsim" -json -sched "$s" -bench "$b" -procs "$p" -seed "$seed" -realism
            done
        done
    done
done
"$bin/dfdlab" -csv fig1 fig11 fig12 fig13 fig14 fig15 fig16 fig17 thm45 ablation adaptive profile
"$bin/dfdtrace" -gantt -max 100000
"$bin/dfdtrace" -procs 4 -k 100 -depth 4 -gantt -max 100000
