package realtime

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lass/internal/cluster"
	"lass/internal/controller"
	"lass/internal/functions"
	"lass/internal/queuing"
)

// fastConfig keeps wall-clock test time low: 100ms epochs, short windows.
func fastConfig() Config {
	return Config{
		Cluster: cluster.PaperCluster(),
		Controller: controller.Config{
			EvalInterval: 100 * time.Millisecond,
			Windows: controller.DualWindowConfig{
				Short: 2 * time.Second, Long: 10 * time.Second, BurstFactor: 2,
			},
			MinContainers: 1,
		},
	}
}

func echoSpec() functions.Spec {
	s := functions.MicroBenchmark(5 * time.Millisecond)
	s.ColdStart = 10 * time.Millisecond
	return s
}

//lass:wallclock exercises the live platform in real time.
func TestInvokeEndToEnd(t *testing.T) {
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	var executed atomic.Int64
	handler := func(ctx context.Context, payload []byte) ([]byte, error) {
		executed.Add(1)
		time.Sleep(2 * time.Millisecond)
		return append([]byte("echo:"), payload...), nil
	}
	if err := p.Register(echoSpec(), handler, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision("micro-benchmark", 2); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // cold start
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := p.Invoke(ctx, "micro-benchmark", []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "echo:hi" {
		t.Errorf("out=%q", out)
	}
	if executed.Load() != 1 {
		t.Errorf("executed=%d", executed.Load())
	}
}

func TestInvokeUnknownFunction(t *testing.T) {
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if _, err := p.Invoke(context.Background(), "ghost", nil); err == nil {
		t.Error("want error for unknown function")
	}
}

func TestRegisterValidation(t *testing.T) {
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if err := p.Register(echoSpec(), nil, queuing.SLO{}); err == nil {
		t.Error("want error for nil handler")
	}
	h := func(ctx context.Context, b []byte) ([]byte, error) { return b, nil }
	if err := p.Register(echoSpec(), h, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Register(echoSpec(), h, queuing.SLO{}); err == nil {
		t.Error("want error for duplicate registration")
	}
}

//lass:wallclock exercises the live platform in real time.
func TestConcurrentInvocationsAutoScale(t *testing.T) {
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	handler := func(ctx context.Context, payload []byte) ([]byte, error) {
		time.Sleep(3 * time.Millisecond)
		return payload, nil
	}
	if err := p.Register(echoSpec(), handler, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision("micro-benchmark", 1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)

	// A fixed number of calls, not a deadline: a busy host then offers
	// them more slowly, never fewer of them.
	const calls = 400
	var wg sync.WaitGroup
	var ok atomic.Int64
	for range calls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := p.Invoke(ctx, "micro-benchmark", []byte("x")); err == nil {
				ok.Add(1)
			}
		}()
		time.Sleep(5 * time.Millisecond) // ~200 req/s offered
	}
	wg.Wait()
	if ok.Load() < 300 {
		t.Fatalf("issued=%d completed=%d, want ≥ 300 completed", calls, ok.Load())
	}
	st, err := p.Stats("micro-benchmark")
	if err != nil {
		t.Fatal(err)
	}
	if st.LambdaHat <= 0 {
		t.Errorf("controller never estimated a rate: %+v", st)
	}
	if st.Containers < 1 {
		t.Errorf("no workers: %+v", st)
	}
	if p.Utilization() <= 0 {
		t.Error("zero utilization with live containers")
	}
}

//lass:wallclock exercises the live platform in real time.
func TestCPUFractionInContext(t *testing.T) {
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	got := make(chan float64, 1)
	handler := func(ctx context.Context, payload []byte) ([]byte, error) {
		got <- CPUFraction(ctx)
		return nil, nil
	}
	if err := p.Register(echoSpec(), handler, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	p.Provision("micro-benchmark", 1)
	time.Sleep(50 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := p.Invoke(ctx, "micro-benchmark", nil); err != nil {
		t.Fatal(err)
	}
	if f := <-got; f != 1.0 {
		t.Errorf("fraction=%v want 1.0 (standard container)", f)
	}
	if CPUFraction(context.Background()) != 1 {
		t.Error("default fraction should be 1")
	}
}

//lass:wallclock exercises the live platform in real time.
func TestStopFailsPendingInvocations(t *testing.T) {
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	handler := func(ctx context.Context, payload []byte) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	if err := p.Register(echoSpec(), handler, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	// No containers: the invocation stays queued.
	errCh := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "micro-benchmark", nil)
		errCh <- err
	}()
	time.Sleep(20 * time.Millisecond)
	p.Stop()
	select {
	case err := <-errCh:
		if err != ErrStopped {
			t.Errorf("err=%v want ErrStopped", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued invocation not released on Stop")
	}
	if _, err := p.Invoke(context.Background(), "micro-benchmark", nil); err != ErrStopped {
		t.Errorf("post-stop err=%v", err)
	}
	p.Stop() // double stop is a no-op
}

// TestCancelledQueuedInvocationNeverRuns: with one worker held by A, B is
// cancelled while queued. Once A is released, B must not run; C, invoked
// afterwards, is served only once the pump has moved past B.
//
//lass:wallclock exercises the live platform in real time.
func TestCancelledQueuedInvocationNeverRuns(t *testing.T) {
	cfg := fastConfig()
	cfg.Controller.EvalInterval = time.Hour // no Step: the pool stays at one worker
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	var runs atomic.Int64
	release := make(chan struct{})
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free() // before Stop, which waits for the handlers
	handler := func(ctx context.Context, payload []byte) ([]byte, error) {
		runs.Add(1)
		<-release
		return payload, nil
	}
	if err := p.Register(echoSpec(), handler, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision("micro-benchmark", 1); err != nil {
		t.Fatal(err)
	}
	invoke := func(ctx context.Context) chan error {
		errCh := make(chan error, 1)
		go func() {
			_, err := p.Invoke(ctx, "micro-benchmark", nil)
			errCh <- err
		}()
		return errCh
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}
	stats := func() Snapshot {
		st, err := p.Stats("micro-benchmark")
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	waitFor("the worker's cold start", func() bool { return stats().Containers == 1 })
	a := invoke(context.Background())
	waitFor("A to start", func() bool { return runs.Load() == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	b := invoke(ctx)
	waitFor("B to queue", func() bool { return stats().QueueLen == 1 })
	cancel()
	if err := <-b; err != context.Canceled {
		t.Fatalf("cancelled B returned %v, want context.Canceled", err)
	}

	free()
	if err := <-a; err != nil {
		t.Fatal(err)
	}
	if err := <-invoke(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := runs.Load(); n != 2 {
		t.Errorf("handler ran %d times for A, cancelled B and C; want 2", n)
	}
}

func TestStatsUnknownFunction(t *testing.T) {
	p, err := New(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	if _, err := p.Stats("ghost"); err == nil {
		t.Error("want error")
	}
}

// TestQueueClearsPoppedSlots: popped slots hold no invocation, an emptied
// queue reuses its array from the start, and a full array with popped slots
// in front slides its waiting entries down, in order, before growing.
func TestQueueClearsPoppedSlots(t *testing.T) {
	f := &fnState{}
	invs := make([]*invocation, 6)
	for i := range invs {
		invs[i] = &invocation{}
	}
	for _, inv := range invs[:4] {
		f.push(inv)
	}
	arr := f.queue[:cap(f.queue)]
	f.pop()
	f.pop()
	if arr[0] != nil || arr[1] != nil {
		t.Error("popped slots still hold their invocations")
	}
	for range 2 {
		f.pop()
	}
	if f.head != 0 || len(f.queue) != 0 {
		t.Fatalf("empty queue at head %d len %d", f.head, len(f.queue))
	}
	for _, inv := range invs[:cap(arr)] {
		f.push(inv)
	}
	if &f.queue[0] != &arr[0] {
		t.Error("an emptied queue did not reuse its array")
	}
	f.pop()
	f.push(invs[5])
	if &f.queue[0] != &arr[0] || f.head != 0 {
		t.Error("a full array with a popped slot grew instead of sliding down")
	}
	want := append(append([]*invocation{}, invs[1:cap(arr)]...), invs[5])
	for i, inv := range f.queue {
		if inv != want[i] {
			t.Fatalf("slot %d out of order after the slide", i)
		}
	}
}

// TestSmoothWRRPickSequence pins the pick sequence over workers of unequal
// CPU in container-ID order: the 2-core container takes half the picks,
// and the tie between the two 1-core ones goes to the lower ID.
func TestSmoothWRRPickSequence(t *testing.T) {
	cl, err := cluster.New(cluster.PaperCluster())
	if err != nil {
		t.Fatal(err)
	}
	f := &fnState{}
	for _, cpu := range []int64{1000, 2000, 1000} {
		c, err := cl.Place("fn", cpu, 128)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.MarkRunning(c); err != nil {
			t.Fatal(err)
		}
		f.workers = append(f.workers, &worker{c: c})
	}
	var p Platform
	var got []cluster.ContainerID
	for range 8 {
		got = append(got, p.selectIdleLocked(f).c.ID)
	}
	want := []cluster.ContainerID{2, 1, 3, 2, 2, 1, 3, 2}
	if !slices.Equal(got, want) {
		t.Errorf("picks %v, want %v", got, want)
	}
}

// oneWorker starts a platform whose only function has one warm container
// and no controller step during the test.
//
//lass:wallclock waits for the container's cold start in real time.
func oneWorker(t *testing.T, handler Handler) *Platform {
	t.Helper()
	cfg := fastConfig()
	cfg.Controller.EvalInterval = time.Hour
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Stop)
	if err := p.Register(echoSpec(), handler, queuing.SLO{}); err != nil {
		t.Fatal(err)
	}
	if err := p.Provision("micro-benchmark", 1); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := p.Stats("micro-benchmark")
		if err != nil {
			t.Fatal(err)
		}
		if st.Containers == 1 {
			return p
		}
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the worker's cold start")
		}
	}
}

// TestCancelledCallerCancelsItsHandler: the caller runs its own handler, so
// cancelling the caller's ctx cancels the running handler, the caller
// returns promptly, and the freed worker serves the next call.
//
//lass:wallclock exercises the live platform in real time.
func TestCancelledCallerCancelsItsHandler(t *testing.T) {
	started := make(chan struct{}, 1)
	p := oneWorker(t, func(ctx context.Context, payload []byte) ([]byte, error) {
		if string(payload) != "block" {
			return payload, nil
		}
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	})
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := p.Invoke(ctx, "micro-benchmark", []byte("block"))
		errCh <- err
	}()
	<-started
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled caller returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled caller still blocked in its handler")
	}
	next, stop := context.WithTimeout(context.Background(), 2*time.Second)
	defer stop()
	if out, err := p.Invoke(next, "micro-benchmark", []byte("hi")); err != nil || string(out) != "hi" {
		t.Fatalf("next call on the freed worker: %q, %v", out, err)
	}
}

// TestRacingCancelsKeepTheHandOff: callers whose deadlines end while they
// queue for one worker, or just as it is handed to them, never lose it: a
// call returns its handler's result exactly when the handler ran for it,
// and the worker serves the next call afterwards.
//
//lass:wallclock exercises the live platform in real time.
func TestRacingCancelsKeepTheHandOff(t *testing.T) {
	var runs atomic.Int64
	p := oneWorker(t, func(ctx context.Context, payload []byte) ([]byte, error) {
		runs.Add(1)
		time.Sleep(50 * time.Microsecond)
		return payload, nil
	})
	var ok atomic.Int64
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration((g*50+i)%7)*100*time.Microsecond)
				out, err := p.Invoke(ctx, "micro-benchmark", []byte("x"))
				cancel()
				switch {
				case err == nil && string(out) == "x":
					ok.Add(1)
				case !errors.Is(err, context.DeadlineExceeded):
					t.Errorf("call returned %q, %v", out, err)
				}
			}
		}()
	}
	wg.Wait()
	if ok.Load() != runs.Load() {
		t.Errorf("%d calls returned a result but the handler ran %d times", ok.Load(), runs.Load())
	}
	next, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := p.Invoke(next, "micro-benchmark", []byte("x")); err != nil {
		t.Fatalf("worker not free after the racing cancels: %v", err)
	}
}

// TestStopJoinsCallerRunHandler: Stop cancels a handler running on its
// caller's goroutine and returns only after that handler has returned.
//
//lass:wallclock exercises the live platform in real time.
func TestStopJoinsCallerRunHandler(t *testing.T) {
	started := make(chan struct{}, 1)
	var returned atomic.Bool
	p := oneWorker(t, func(ctx context.Context, payload []byte) ([]byte, error) {
		started <- struct{}{}
		<-ctx.Done()
		time.Sleep(20 * time.Millisecond)
		returned.Store(true)
		return nil, ctx.Err()
	})
	errCh := make(chan error, 1)
	go func() {
		_, err := p.Invoke(context.Background(), "micro-benchmark", nil)
		errCh <- err
	}()
	<-started
	p.Stop()
	if !returned.Load() {
		t.Fatal("Stop returned before the in-flight handler")
	}
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Errorf("stopped caller returned %v, want context.Canceled", err)
	}
}

// TestWarmInvokeAllocs caps the heap allocations of a call that finds an
// idle worker: the invocation, the handler's two contexts, their cancel
// func and the boxed CPU fraction.
//
//lass:wallclock exercises the live platform in real time.
func TestWarmInvokeAllocs(t *testing.T) {
	p := oneWorker(t, func(ctx context.Context, payload []byte) ([]byte, error) {
		return payload, nil
	})
	ctx, payload := context.Background(), []byte("x")
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := p.Invoke(ctx, "micro-benchmark", payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 5 {
		t.Errorf("warm Invoke: %.1f allocs, want at most 5", allocs)
	}
}
