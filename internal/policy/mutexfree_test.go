package policy_test

// TestStealPathMutexFree pins the PR 10 acceptance criterion: the
// steady-state steal path and the owner push/pop path acquire zero
// mutexes. Two halves:
//
//   - structurally, deque.Deque contains no sync.Mutex or sync.RWMutex
//     anywhere in its type graph (the old Mu field is gone, not merely
//     bypassed), checked by reflection so a reintroduction fails here;
//   - behaviorally, a bare-deque hammer — one owner doing PushTop, PopTop
//     and PopTopIf while thieves PopBottom — run under a 1-in-1 mutex
//     profile must record no contention sample with a frame in
//     internal/deque. The profile only samples contended acquisitions,
//     which is exactly the claim: whatever blocking remains in the binary
//     (the R spine, the queue policies' mutex, test harness locks), none
//     of it is reached from an owner's push or pop or a thief's steal.
//
// CI runs this under -race with GOMAXPROCS 2 and 8 (the deque-stress
// job), so the assertion covers both the preemption-heavy and the truly
// parallel regimes.

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dfdeques/internal/deque"
)

func TestStealPathMutexFree(t *testing.T) {
	// Structural half.
	mutexT := reflect.TypeOf(sync.Mutex{})
	rwMutexT := reflect.TypeOf(sync.RWMutex{})
	seen := map[reflect.Type]bool{}
	var scan func(ty reflect.Type, path string)
	scan = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if ty == mutexT || ty == rwMutexT {
			t.Fatalf("deque type graph contains a mutex at %s", path)
		}
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				f := ty.Field(i)
				scan(f.Type, path+"."+f.Name)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array:
			scan(ty.Elem(), path+"[]")
		}
	}
	scan(reflect.TypeOf(deque.Deque[int]{}), "Deque")

	// Behavioral half: sample every contended mutex acquisition during a
	// storm of owner ops and steals on one deque, then assert none of the
	// samples passes through the deque.
	old := runtime.SetMutexProfileFraction(1)
	defer runtime.SetMutexProfileFraction(old)

	const thieves = 3
	d := new(deque.Deque[int])
	var done atomic.Bool
	var wg sync.WaitGroup
	for range thieves {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				d.PopBottom()
			}
		}()
	}
	for i := 0; i < 60000; i++ {
		d.PushTop(i)
		switch i % 3 {
		case 1:
			d.PopTop()
		case 2:
			d.PopTopIf(i)
		}
	}
	done.Store(true)
	wg.Wait()

	var buf bytes.Buffer
	if err := pprof.Lookup("mutex").WriteTo(&buf, 1); err != nil {
		t.Fatalf("mutex profile: %v", err)
	}
	profile := buf.String()
	if strings.Contains(profile, "internal/deque.") {
		t.Errorf("mutex profile records contention through internal/deque:\n%s", profile)
	}
}
