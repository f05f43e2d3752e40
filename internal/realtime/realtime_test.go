package realtime

import (
	"context"
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

	var wg sync.WaitGroup
	var ok atomic.Int64
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
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
		t.Fatalf("completed=%d", ok.Load())
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
