package grt

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// The idle protocol's model: three workers, the ready and blocked thread
// counts, the two idle counts and the holder of idle.mu, stepped one
// atomic action at a time. Each step stands for a runtime function and
// decides with the same rule it does (parkRule, signalRule, handOffRule,
// deadlockRule):
//
//   - a running thread publishes (fork, Unlock or Future.Set waking a
//     blocked thread, give-up), blocks, or exits, and a thread that
//     publishes owes a signal check (idle.signal);
//   - the thread that stopped picks the worker's next one on its behalf
//     (next, Terminate, resteal's steal) or sends it to acquire;
//   - a worker in acquire takes a ready thread and owes a hand-off
//     (acquired → idle.handOff), or fails, takes mu, counts itself parked
//     and lets parkRule decide; a signaled worker retakes mu and hunts;
//   - outside the workers, Submit injects a root and a cancel republishes
//     the blocked threads, and each owes a signal check.
//
// A signal check reads the counts and, if the rule says so, owes a Signal,
// which needs mu and wakes one waiting worker (any of them) or nobody. A
// pick of the worker's own deque (next, Terminate) publishes nothing and
// owes nothing: with those hand-offs left out the model finds no
// violation, so the runtime makes none.
//
// The model over-approximates: an Acquire may fail even when work is ready
// (a lost race), and any ready thread may be a worker's own-deque pick.
// Extra behaviours can only add counterexamples, never hide one.

const (
	mWorkers    = 3
	mMaxReady   = 2 // publications stop here; a cancel may exceed it
	mMaxBlocked = 2
	mMaxDepth   = 400
)

type mPhase uint8

const (
	mRun        mPhase = iota // running a thread
	mSuspended                // its thread blocked: next picks or it acquires
	mExited                   // its thread exited: Terminate picks or not
	mResteal                  // its thread gave up and published itself: resteal
	mEntering                 // on its way into acquire, not yet spinning
	mHunting                  // in acquire, counted spinning
	mFailed                   // a hunt failed; about to take mu to park
	mDeciding                 // holds mu, counted parked: parkRule decides
	mWaiting                  // in cond.Wait
	mSignaled                 // signaled, still counted parked
	mConfirming               // a deadlock candidate, counted in neither
)

var mPhaseName = [...]string{"run", "suspended", "exited", "resteal", "entering",
	"hunting", "failed", "deciding", "waiting", "signaled", "confirming"}

type mWake uint8

const (
	mNoWake  mWake = iota
	mCheck         // after a publication: signalRule on the counts
	mHandOff       // after a take from the pool: handOffRule
	mSignal        // a rule said yes: take mu and Signal
)

type mWorker struct {
	ph      mPhase
	silent  bool  // mRun: the thread never publishes (a Lock/Unlock loop)
	hadWork bool  // mFailed, mDeciding: the failed hunt saw work pending
	owes    mWake // a wake to make before anything else
}

type mState struct {
	w                [mWorkers]mWorker
	ext              mWake // Submit's or a cancel's wake
	ready, blocked   int8
	parked, spinning int8
	mu               int8 // the worker deciding a park under mu, or -1
}

// idleRules are the decisions the model steps through: the runtime's, or a
// seeded mutation of them.
type idleRules struct {
	park     func(idleView) parkAction
	signal   func(parked, spinning int64) bool
	handOff  func(hasWork bool, parked, spinning int64) bool
	deadlock func(idleView) bool
}

var runtimeRules = idleRules{parkRule, signalRule, handOffRule, deadlockRule}

// live is jobsInFlight: some thread ready, blocked or running.
func (s *mState) live() bool {
	n := int(s.ready) + int(s.blocked)
	for _, w := range s.w {
		if w.ph == mRun {
			n++
		}
	}
	return n > 0
}

func (s *mState) view(hadWork bool) idleView {
	return idleView{parked: int64(s.parked), spinning: int64(s.spinning), workers: mWorkers,
		hadWork: hadWork, hasWork: s.ready > 0, jobsInFlight: s.live()}
}

func (s *mState) owes(who int) mWake {
	if who < 0 {
		return s.ext
	}
	return s.w[who].owes
}

func (s *mState) setOwes(who int, k mWake) {
	if who < 0 {
		s.ext = k
	} else {
		s.w[who].owes = k
	}
}

// quiescent: nobody is inside a step that spans several actions — every
// worker runs, hunts, waits or is signaled, owes no wake, and mu is free.
func (s *mState) quiescent() bool {
	if s.mu >= 0 || s.ext != mNoWake {
		return false
	}
	for _, w := range s.w {
		if w.owes != mNoWake || (w.ph != mRun && w.ph != mHunting && w.ph != mWaiting && w.ph != mSignaled) {
			return false
		}
	}
	return true
}

// check returns the property a quiescent state breaks, or "".
func (s *mState) check() string {
	var waiting, awake int
	for _, w := range s.w {
		switch w.ph {
		case mWaiting:
			waiting++
		case mHunting, mSignaled:
			awake++
		}
	}
	if s.ready > 0 && waiting > 0 && awake == 0 {
		return "liveness: ready work, a worker waiting, and nobody hunting or signaled"
	}
	if waiting == mWorkers && s.live() {
		return "deadlock missed: every worker waiting on blocked threads, no confirmation under way"
	}
	return ""
}

func (s *mState) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ready=%d blocked=%d parked=%d spinning=%d", s.ready, s.blocked, s.parked, s.spinning)
	for i, w := range s.w {
		fmt.Fprintf(&b, " | w%d %s", i, mPhaseName[w.ph])
		if w.ph == mRun && w.silent {
			b.WriteString("(silent)")
		}
		if w.owes != mNoWake {
			fmt.Fprintf(&b, " owes %s", [...]string{"", "signal check", "hand-off", "Signal"}[w.owes])
		}
	}
	if s.ext != mNoWake {
		b.WriteString(" | Submit/cancel owes a wake")
	}
	return b.String()
}

type mEdge struct {
	to   mState
	who  int // worker, or -1 for Submit and cancel
	what string
	bad  string // a property this step breaks, or ""
}

// edges lists every step s can take.
func (s mState) edges(r idleRules) []mEdge {
	var out []mEdge
	add := func(to mState, who int, what string) { out = append(out, mEdge{to: to, who: who, what: what}) }
	for who := -1; who < mWorkers; who++ {
		if s.owes(who) != mNoWake {
			s.wakeEdges(r, who, add)
			continue
		}
		if who < 0 {
			if s.ready < mMaxReady {
				t := s
				t.ready++
				t.ext = mCheck
				add(t, who, "Submit injects a root")
			}
			if s.blocked > 0 {
				t := s
				t.ready += t.blocked
				t.blocked = 0
				t.ext = mCheck
				add(t, who, "a cancel republishes the blocked threads")
			}
			continue
		}
		out = s.workerEdges(r, who, out)
	}
	return out
}

func (s mState) wakeEdges(r idleRules, who int, add func(mState, int, string)) {
	t := s
	switch s.owes(who) {
	case mCheck, mHandOff:
		yes := r.signal(int64(s.parked), int64(s.spinning))
		if s.owes(who) == mHandOff {
			yes = r.handOff(s.ready > 0, int64(s.parked), int64(s.spinning))
		}
		t.setOwes(who, mNoWake)
		if yes {
			t.setOwes(who, mSignal)
		}
		add(t, who, "reads the counts for its wake")
	case mSignal:
		if s.mu >= 0 {
			return // blocked on mu
		}
		t.setOwes(who, mNoWake)
		woke := false
		for i := range s.w {
			if s.w[i].ph == mWaiting {
				u := t
				u.w[i].ph = mSignaled
				add(u, who, [...]string{"signals w0", "signals w1", "signals w2"}[i])
				woke = true
			}
		}
		if !woke {
			add(t, who, "signals, and nobody waits")
		}
	}
}

func (s mState) workerEdges(r idleRules, who int, out []mEdge) []mEdge {
	add := func(to mState, what string) { out = append(out, mEdge{to: to, who: who, what: what}) }
	// dispatch runs a ready thread of either kind.
	dispatch := func(t mState, owes mWake, what string) {
		t.ready--
		t.w[who] = mWorker{ph: mRun, owes: owes}
		add(t, what+" a thread that publishes")
		t.w[who].silent = true
		add(t, what+" a thread that never publishes")
	}
	w := s.w[who]
	t := s
	switch w.ph {
	case mRun:
		if !w.silent && s.ready < mMaxReady {
			t.ready++
			t.w[who].owes = mCheck
			add(t, "forks")
			if s.blocked > 0 {
				t.blocked--
				add(t, "wakes a blocked thread")
			}
			t = s
			t.ready++
			t.w[who] = mWorker{ph: mResteal, owes: mCheck}
			add(t, "gives up (publishes itself)")
			t = s
		}
		if s.blocked < mMaxBlocked {
			t.blocked++
			t.w[who] = mWorker{ph: mSuspended}
			add(t, "blocks")
			t = s
		}
		t.w[who] = mWorker{ph: mExited}
		add(t, "exits")
	case mSuspended, mExited, mResteal:
		if s.ready > 0 {
			switch w.ph {
			case mSuspended:
				dispatch(t, mNoWake, "next dispatches")
			case mExited:
				dispatch(t, mNoWake, "Terminate dispatches")
			case mResteal:
				dispatch(t, mHandOff, "resteal steals")
			}
		}
		t.w[who] = mWorker{ph: mEntering}
		if w.ph == mExited {
			t.w[who].owes = mCheck // exit signals when Terminate picks nothing
			add(t, "Terminate picks nothing (the give-up leaves the deque stealable)")
			if s.ready < mMaxReady {
				t.ready++
				add(t, "Terminate republishes the woken parent and picks nothing")
			}
			break
		}
		add(t, "goes to acquire")
	case mEntering:
		t.spinning++
		t.w[who].ph = mHunting
		add(t, "enters acquire")
	case mHunting:
		if s.ready > 0 {
			t.spinning--
			dispatch(t, mHandOff, "acquire takes")
		}
		t = s
		t.w[who] = mWorker{ph: mFailed, hadWork: s.ready > 0}
		add(t, "fails a hunt")
	case mFailed:
		if s.mu < 0 {
			t.mu = int8(who)
			t.parked++
			t.spinning--
			t.w[who].ph = mDeciding
			add(t, "takes mu to park")
		}
	case mDeciding:
		t.mu = -1
		switch act := r.park(s.view(w.hadWork)); act {
		case parkWait:
			t.w[who].ph = mWaiting
			add(t, "waits on cond")
		case parkRetry, parkBackoff:
			t.parked--
			t.spinning++
			t.w[who].ph = mHunting
			add(t, [...]string{parkRetry: "retries", parkBackoff: "backs off and hunts again"}[act])
		case parkConfirm:
			t.parked--
			t.w[who].ph = mConfirming
			add(t, "has a deadlock candidate")
		}
	case mSignaled:
		if s.mu < 0 {
			t.parked--
			t.spinning++
			t.w[who].ph = mHunting
			add(t, "retakes mu and hunts")
		}
	case mConfirming:
		if s.mu >= 0 {
			break
		}
		if !r.deadlock(s.view(false)) {
			t.spinning++
			t.w[who].ph = mHunting
			add(t, "finds no deadlock and hunts")
			break
		}
		var bad string
		for i, o := range s.w {
			if s.ready > 0 || o.ph == mRun {
				bad = "deadlock soundness: confirmed with work ready or a thread running"
			} else if i != who && o.ph != mWaiting && o.ph != mSignaled {
				bad = fmt.Sprintf("deadlock soundness: confirmed while w%d is %s", i, mPhaseName[o.ph])
			}
		}
		t.ready += t.blocked
		t.blocked = 0
		t.w[who] = mWorker{ph: mEntering, owes: mCheck}
		out = append(out, mEdge{to: t, who: who, what: "confirms a deadlock and cancels", bad: bad})
	}
	return out
}

func actor(who int) string {
	if who < 0 {
		return "ext"
	}
	return fmt.Sprintf("w%d", who)
}

type exploreResult struct {
	states, quiescent, depth int
	closed                   bool     // every reachable state was visited within mMaxDepth
	bad                      string   // the first property broken, or ""
	trace                    []string // the steps to it from the idle runtime
}

// explore visits the states reachable from an idle runtime (every worker
// waiting, nothing in flight) breadth-first, checking each quiescent state
// and each deadlock confirmation; the first violation ends the search with
// its shortest trace.
func explore(r idleRules) exploreResult {
	var init mState
	init.mu = -1
	init.parked = mWorkers
	for i := range init.w {
		init.w[i].ph = mWaiting
	}
	type via struct {
		from mState
		edge int
	}
	parent := map[mState]via{init: {init, -1}}
	trace := func(s mState, last *mEdge) []string {
		var steps []string
		if last != nil {
			steps = append(steps, actor(last.who)+" "+last.what)
		}
		for s != init {
			p := parent[s]
			e := p.from.edges(r)[p.edge]
			steps = append(steps, actor(e.who)+" "+e.what+"  ->  "+s.String())
			s = p.from
		}
		steps = append(steps, "start: "+init.String())
		for i, j := 0, len(steps)-1; i < j; i, j = i+1, j-1 {
			steps[i], steps[j] = steps[j], steps[i]
		}
		return steps
	}
	var res exploreResult
	frontier := []mState{init}
	for ; len(frontier) > 0 && res.depth < mMaxDepth; res.depth++ {
		var next []mState
		for _, s := range frontier {
			res.states++
			if s.quiescent() {
				res.quiescent++
				if bad := s.check(); bad != "" {
					res.bad, res.trace = bad, trace(s, nil)
					return res
				}
			}
			for i, e := range s.edges(r) {
				if e.bad != "" {
					res.bad, res.trace = e.bad, trace(s, &e)
					return res
				}
				if _, seen := parent[e.to]; !seen {
					parent[e.to] = via{s, i}
					next = append(next, e.to)
				}
			}
		}
		frontier = next
	}
	res.closed = len(frontier) == 0
	return res
}

// TestIdleProtocolExplorer checks the park and wake rules exhaustively on
// the model above. At every quiescent state, ready work with a worker
// waiting has some worker hunting or signaled (liveness), and the three
// workers never all wait on cond while a job is live (a missed deadlock).
// At every deadlock confirmation nothing is ready, no thread runs, and
// every other worker waits on cond or is signaled. A signaled worker may
// be among them: it was woken for work that someone else has taken since,
// it will hunt and find nothing, and the program is deadlocked all the
// same.
//
// The seeded mutations must each be caught: dropping acquired's hand-off,
// and the backoff-park rule that counts unparked workers, not hunting ones,
// as responsible for pending work (a worker running a thread that never
// publishes would strand it).
func TestIdleProtocolExplorer(t *testing.T) {
	begin := time.Now()
	res := explore(runtimeRules)
	t.Logf("%d states (%d quiescent) to depth %d, closed=%v, in %v",
		res.states, res.quiescent, res.depth, res.closed, time.Since(begin).Round(time.Millisecond))
	if res.bad != "" {
		t.Fatalf("%s:\n%s", res.bad, strings.Join(res.trace, "\n"))
	}
	if !res.closed {
		t.Errorf("the search did not close within depth %d", mMaxDepth)
	}

	mutations := []struct {
		name  string
		rules idleRules
	}{
		{"acquired does not hand off", idleRules{park: parkRule, signal: signalRule, deadlock: deadlockRule,
			handOff: func(bool, int64, int64) bool { return false }}},
		{"backoff park counts unparked workers", idleRules{signal: signalRule, handOff: handOffRule, deadlock: deadlockRule,
			park: func(v idleView) parkAction {
				if v.hadWork && !v.stopped {
					if v.parked == v.workers {
						return parkBackoff
					}
					return parkWait
				}
				return parkRule(v)
			}}},
	}
	for _, m := range mutations {
		res := explore(m.rules)
		if res.bad == "" {
			t.Errorf("mutation %q: not caught in %d states", m.name, res.states)
			continue
		}
		t.Logf("mutation %q caught after %d states: %s:\n%s", m.name, res.states, res.bad, strings.Join(res.trace, "\n"))
	}
}
