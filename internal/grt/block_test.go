package grt

import (
	"context"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dfdeques/internal/rtrace"
)

// wakesInWindow counts the blocks whose wake landed inside the blocking
// thread's window: after its block record on lane w and before lane w's
// next dispatch or idle mark — the dispatch of the next thread the blocking
// thread picks before it hands w back, or the idle mark of a worker handed
// back nothing — another lane already pushed, queued or dispatched it.
func wakesInWindow(evs []rtrace.Event) (n int) {
	open := map[int64]int32{} // blocked thread → its lane, while the window is open
	for _, e := range evs {
		if w, ok := open[e.A]; ok && e.W != w {
			switch e.Kind {
			case rtrace.EvPush, rtrace.EvQueuePush, rtrace.EvDispatch:
				n++
				delete(open, e.A)
			}
		}
		if e.Kind == rtrace.EvDispatch || e.Kind == rtrace.EvIdle {
			for tid, w := range open {
				if w == e.W {
					delete(open, tid)
				}
			}
		}
		if e.Kind == rtrace.EvBlock {
			open[e.A] = e.W
		}
	}
	return n
}

// TestBlockRacesItsWake lands wakes inside the window a blocking thread
// opens: from queuing itself as a waiter (or registering as its child's
// joiner) to handing its worker back. In that window a waker may dispatch
// the frame on another worker while it still picks its old worker's next
// thread with the worker it captured. Three shapes on four workers: a
// reader that forks the Future's setter and reads at once, Mutex ping-pong
// among three threads, and a chain of joins on short children that thieves
// take. Twenty seeds each; every result must be exact and every stream must
// replay (the join chain with Lemma 3.1 checked at every step). With more
// than one processor a wake must have landed inside the window: when twenty
// seeds did not show one, the test keeps drawing seeds for a while.
func TestBlockRacesItsWake(t *testing.T) {
	const seeds, rounds = 20, 48
	work := func(n int) (s int64) {
		for i := 0; i < n; i++ {
			s += int64(i)
		}
		return s
	}
	for _, tc := range []struct {
		name  string
		exact bool // no lock or future: Lemma 3.1 is checked exactly
		want  int64
		body  func(r *T, sum *atomic.Int64)
	}{
		{"future", false, rounds, func(r *T, sum *atomic.Int64) {
			for i := 0; i < rounds; i++ {
				var f Future
				h := r.Fork(func(c *T) {
					work(256)
					f.Set(c, i)
				})
				work(256) // about as long: a thief's Set lands near the read
				if v := f.Get(r); v != i {
					panic("future read a value it was not set to")
				}
				r.Join(h)
				sum.Add(1)
			}
		}},
		{"mutex", false, 3 * rounds, func(r *T, sum *atomic.Int64) {
			var m Mutex
			var held int64 // guarded by m
			player := func(c *T) {
				for i := 0; i < rounds; i++ {
					work(512) // long enough for thieves to start the other players
					m.Lock(c)
					held++
					work(512)
					m.Unlock(c)
				}
			}
			a := r.Fork(player)
			b := r.Fork(player)
			player(r)
			r.Join(b)
			r.Join(a)
			sum.Add(held)
		}},
		{"join", true, 3 * rounds * work(256), func(r *T, sum *atomic.Int64) {
			for i := 0; i < rounds; i++ {
				var hs [3]*T
				for k := range hs {
					hs[k] = r.Fork(func(c *T) { sum.Add(work(256)) })
				}
				work(256)
				for k := len(hs) - 1; k >= 0; k-- {
					r.Join(hs[k])
				}
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wantRace := runtime.GOMAXPROCS(0) > 1
			deadline := time.Now().Add(20 * time.Second)
			inWindow := 0
			seed := int64(1)
			for ; seed <= seeds || (wantRace && inWindow == 0 && time.Now().Before(deadline)); seed++ {
				rec := rtrace.NewRecorder(4, 1<<16)
				var sum atomic.Int64
				st, err := Run(Config{Workers: 4, Sched: DFDeques, Seed: seed, Probe: rec},
					func(r *T) { tc.body(r, &sum) })
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if sum.Load() != tc.want {
					t.Fatalf("seed %d: sum = %d, want %d", seed, sum.Load(), tc.want)
				}
				if st.HeapLive != 0 {
					t.Fatalf("seed %d: HeapLive = %d, want 0", seed, st.HeapLive)
				}
				if tc.exact {
					verifyExact(t, rec)
				} else if _, err := rtrace.Verify(rec.Meta(), rec.Events(), rec.Dropped()); err != nil {
					t.Fatalf("seed %d: replay: %v", seed, err)
				}
				inWindow += wakesInWindow(rec.Events())
			}
			t.Logf("over %d seeds: %d wakes inside the window", seed-1, inWindow)
			if wantRace && inWindow == 0 {
				t.Error("no wake landed between a block and its hand-back")
			}
		})
	}
}

// TestBlockCancelRacesItsWake cancels jobs whose threads contend on a Mutex
// and read Futures, so that the cancel sweep lands between a thread queuing
// itself as a waiter and handing its worker back. The sweep then republishes
// the thread, and under the global-queue policies the thread's own pick of
// its worker's next thread may return the thread itself. Such a thread was
// never woken: it must unwind, not return from Lock without the lock or from
// Get with an unset value. Each job is canceled once its readers have done a
// random number of reads, while the contention is in full swing. Every job
// must drain and Shutdown must succeed.
func TestBlockCancelRacesItsWake(t *testing.T) {
	jobs := 150
	if testing.Short() {
		jobs = 40
	}
	for _, k := range []Kind{DFDeques, WS, ADF, FIFO} {
		t.Run(k.String(), func(t *testing.T) {
			rt, err := New(Config{Workers: 4, Sched: k, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(11))
			var unheld, unset atomic.Int64
			for i := 0; i < jobs; i++ {
				var reads atomic.Int64
				j, err := rt.Submit(context.Background(), func(r *T) {
					var m Mutex
					player := func(c *T) {
						for {
							m.Lock(c)
							m.mu.Lock()
							if m.holder != c {
								unheld.Add(1)
							}
							m.mu.Unlock()
							runtime.Gosched()
							m.Unlock(c)
						}
					}
					reader := func(c *T) {
						for n := 1; ; n++ {
							var f Future
							h := c.Fork(func(s *T) { f.Set(s, n) })
							if v := f.Get(c); v != n {
								unset.Add(1)
							}
							c.Join(h)
							reads.Add(1)
						}
					}
					a := r.Fork(player)
					b := r.Fork(player)
					c := r.Fork(reader)
					reader(r) // returns only by unwinding
					r.Join(c)
					r.Join(b)
					r.Join(a)
				})
				if err != nil {
					t.Fatal(err)
				}
				stopAt := int64(1 + rng.Intn(64))
				for start := time.Now(); reads.Load() < stopAt && time.Since(start) < 5*time.Millisecond; {
					runtime.Gosched()
				}
				j.Cancel()
				select {
				case <-j.Done():
				case <-time.After(30 * time.Second):
					t.Fatalf("job %d did not drain after Cancel", i)
				}
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
			if unheld.Load() != 0 || unset.Load() != 0 {
				t.Fatalf("%d Locks returned without the lock, %d Gets returned an unset value", unheld.Load(), unset.Load())
			}
		})
	}
}

// TestReadyWorkNeverWaitsOnABusyWorker keeps one worker busy with a thread
// that publishes nothing — a loop of uncontended Lock/Unlock — while ready
// work is pending: the other players, the readers, the setters the readers
// fork. A busy worker is not responsible for pending work: if the idle
// workers all park on it — after a backoff that counted it, or after a
// take from the pool that handed off to nobody — the readers wait on
// setters nobody runs. Each job's reader cancels it
// after a few reads, so a job that stops making progress never ends; one
// that misses its deadline fails the test and is canceled from outside so
// the runtime can shut down.
func TestReadyWorkNeverWaitsOnABusyWorker(t *testing.T) {
	jobs := 300
	if testing.Short() {
		jobs = 60
	}
	for _, k := range []Kind{DFDeques, FIFO} {
		t.Run(k.String(), func(t *testing.T) {
			rt, err := New(Config{Workers: 4, Sched: k, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < jobs; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				reads := int64(1 + i%16)
				var done atomic.Int64
				j, err := rt.Submit(ctx, func(r *T) {
					var m Mutex
					player := func(c *T) {
						for {
							m.Lock(c)
							m.Unlock(c)
						}
					}
					reader := func(c *T) {
						for n := 1; ; n++ {
							var f Future
							h := c.Fork(func(s *T) { f.Set(s, n) })
							f.Get(c)
							c.Join(h)
							if done.Add(1) == reads {
								cancel()
							}
						}
					}
					a := r.Fork(player)
					b := r.Fork(player)
					c := r.Fork(reader)
					reader(r) // returns only by unwinding
					r.Join(c)
					r.Join(b)
					r.Join(a)
				})
				if err != nil {
					t.Fatal(err)
				}
				select {
				case <-j.Done():
				case <-time.After(10 * time.Second):
					t.Errorf("job %d stalled after %d of %d reads with ready work pending", i, done.Load(), reads)
					cancel()
					<-j.Done()
				}
				cancel()
				if t.Failed() {
					break
				}
			}
			if err := rt.Shutdown(context.Background()); err != nil {
				t.Fatalf("Shutdown: %v", err)
			}
		})
	}
}
