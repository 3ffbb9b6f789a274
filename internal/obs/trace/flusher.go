package trace

import (
	"io"
	"sync"
	"time"
)

// Flusher periodically drains a tracer's completed-record backlog to an
// io.Writer as JSONL. The server binaries use it to stream spans to a
// trace file without letting the in-memory backlog grow to the tracer's
// cap during long runs.
type Flusher struct {
	t     *Tracer
	w     io.Writer
	every time.Duration

	mu sync.Mutex
	// first write error, sticky; guarded by mu
	err     error
	stop    chan struct{}
	done    chan struct{}
	stopped bool
}

// NewFlusher starts a goroutine draining t to w every interval (default
// 1s if interval <= 0). Stop it with Stop; a nil tracer yields a Flusher
// whose goroutine exits immediately on Stop and writes nothing.
func NewFlusher(t *Tracer, w io.Writer, interval time.Duration) *Flusher {
	if interval <= 0 {
		interval = time.Second
	}
	f := &Flusher{
		t:     t,
		w:     w,
		every: interval,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go f.run()
	return f
}

func (f *Flusher) run() {
	defer close(f.done)
	tick := time.NewTicker(f.every)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			f.flush()
		case <-f.stop:
			return
		}
	}
}

func (f *Flusher) flush() {
	if err := f.t.Flush(f.w); err != nil {
		f.mu.Lock()
		if f.err == nil {
			f.err = err
		}
		f.mu.Unlock()
	}
}

// Stop halts the flush loop, performs a final drain, and returns the
// first write error seen (if any). Idempotent: later calls return the
// same error without flushing again.
func (f *Flusher) Stop() error {
	f.mu.Lock()
	already := f.stopped
	f.stopped = true
	f.mu.Unlock()
	if !already {
		close(f.stop)
		<-f.done
		f.flush()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
