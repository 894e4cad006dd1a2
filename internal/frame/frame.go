// Package frame implements the synchronous real-time frame structure the
// reconfiguration model assumes (section 6.1 of Strunk, Knight and Aiello,
// DSN 2005):
//
//   - every application operates with synchronous, cyclic processing and a
//     fixed real-time frame length,
//   - all applications share the same frame length and their frames start
//     together,
//   - each application completes one unit of work per frame, and
//   - results are committed to stable storage at the end of each frame.
//
// The Scheduler realizes this with one ordered pass per frame: every task
// ticks once in registration order, then the commit hooks (the frame-end
// stable-storage commits) run in registration order. Nothing a task does is
// observable before the frame-end commit, so the barrier already serializes
// every observable effect and one pass is faithful to tasks that start
// together. In the paper's words, the scheduler is "an overarching function
// ... to coordinate and control application execution"; in a deployed
// system, timing analysis and synchronization primitives would take its
// place. Concurrency lives one level up: many schedulers run side by side
// in fleet shards and campaign workers, each driven by one goroutine.
package frame

import (
	"errors"
	"fmt"
	"time"
)

// ErrDuplicateTask reports an AddTask with an identifier already registered.
var ErrDuplicateTask = errors.New("frame: duplicate task")

// ErrUnknownTask reports a RemoveTask naming an unregistered task.
var ErrUnknownTask = errors.New("frame: unknown task")

// ErrClosed reports use of a scheduler after Close.
var ErrClosed = errors.New("frame: scheduler closed")

// Context carries per-frame timing information to each task.
type Context struct {
	// Frame is the frame number, starting at 0.
	Frame int64
	// Len is the fixed real-time frame length.
	Len time.Duration
}

// VirtualTime returns the virtual time at the start of the frame: frame
// number times frame length since the system epoch. All timing in the model
// is derived from frame counts, so simulations are deterministic regardless
// of wall-clock pacing.
func (c Context) VirtualTime() time.Duration {
	return time.Duration(c.Frame) * c.Len
}

// Task is one synchronized unit of cyclic work: an application runtime, the
// SCRAM kernel, an environment monitor, or the bus delivery step.
type Task interface {
	// TaskID returns a stable unique identifier.
	TaskID() string
	// Tick performs the task's single unit of work for the frame. An
	// error from Tick is a simulation-level fault (a bug or a deliberate
	// test probe), not a modeled component failure: modeled failures are
	// expressed through the failstop package, never as Tick errors.
	Tick(ctx Context) error
}

// CommitHook runs after every task has completed the frame; hooks run
// sequentially in registration order. The frame-end stable-storage commit
// is registered as a commit hook.
type CommitHook func(ctx Context) error

// Report is one frame's execution summary, passed to the observer after the
// commit hooks finish. All quantities are frame-synchronous counts — no
// wall-clock timings — so an observer feeding the telemetry layer stays
// deterministic.
type Report struct {
	// Frame is the frame number just executed.
	Frame int64
	// Tasks and TaskErrs count the tasks run and the tasks that returned
	// errors.
	Tasks, TaskErrs int
	// Hooks and HookErrs count the commit hooks run and the hooks that
	// returned errors.
	Hooks, HookErrs int
}

// Observer watches frame execution: BeginFrame before the first task ticks,
// EndFrame after the commit hooks. The telemetry layer registers one to
// stamp recorded events with the current frame and count barrier activity.
type Observer interface {
	BeginFrame(ctx Context)
	EndFrame(rep Report)
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithPacing makes Run sleep at the end of each frame until the frame's
// wall-clock deadline, turning the logical frame structure into (soft)
// real-time execution. Without pacing, frames run back to back as fast as
// the work allows.
func WithPacing() Option {
	return func(s *Scheduler) { s.pace = true }
}

// Stats summarizes scheduler execution.
type Stats struct {
	// Frames is the number of frames executed.
	Frames int64
	// Overruns counts paced frames whose work exceeded the frame length.
	Overruns int64
	// MaxFrameWork is the longest wall-clock time spent on any single
	// frame's tasks and hooks.
	MaxFrameWork time.Duration
}

// Scheduler drives a set of tasks through synchronized frames. Create one
// with NewScheduler; the zero value is not usable. A scheduler and its
// tasks belong to one goroutine at a time: every method, and every Tick,
// runs on the caller's goroutine.
type Scheduler struct {
	frameLen time.Duration
	pace     bool

	frame    int64
	epoch    time.Time // wall-clock epoch for pacing; set at first Step
	tasks    []Task
	byID     map[string]bool
	hooks    []CommitHook
	stats    Stats
	observer Observer
	closed   bool
}

// NewScheduler returns a scheduler with the given frame length, which must
// be positive.
func NewScheduler(frameLen time.Duration, opts ...Option) (*Scheduler, error) {
	if frameLen <= 0 {
		return nil, fmt.Errorf("frame: frame length must be positive, got %v", frameLen)
	}
	s := &Scheduler{
		frameLen: frameLen,
		byID:     make(map[string]bool),
	}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// FrameLen returns the frame length.
func (s *Scheduler) FrameLen() time.Duration { return s.frameLen }

// Frame returns the number of the next frame to execute (equivalently, the
// count of frames executed so far).
func (s *Scheduler) Frame() int64 { return s.frame }

// Stats returns execution statistics.
func (s *Scheduler) Stats() Stats { return s.stats }

// AddTask registers a task; it ticks after every task registered before
// it. Tasks may be added between frames but not during Step.
func (s *Scheduler) AddTask(t Task) error {
	if s.closed {
		return ErrClosed
	}
	id := t.TaskID()
	if s.byID[id] {
		return fmt.Errorf("%w: %q", ErrDuplicateTask, id)
	}
	s.tasks = append(s.tasks, t)
	s.byID[id] = true
	return nil
}

// RemoveTask unregisters a task. Tasks may be removed between frames but
// not during Step.
func (s *Scheduler) RemoveTask(id string) error {
	if s.closed {
		return ErrClosed
	}
	if !s.byID[id] {
		return fmt.Errorf("%w: %q", ErrUnknownTask, id)
	}
	delete(s.byID, id)
	for i, t := range s.tasks {
		if t.TaskID() == id {
			s.tasks = append(s.tasks[:i], s.tasks[i+1:]...)
			break
		}
	}
	return nil
}

// TaskIDs returns the registered task identifiers in registration order.
func (s *Scheduler) TaskIDs() []string {
	ids := make([]string, len(s.tasks))
	for i, t := range s.tasks {
		ids[i] = t.TaskID()
	}
	return ids
}

// AddCommitHook appends a frame-end hook. Hooks run sequentially in
// registration order after every task has completed the frame.
func (s *Scheduler) AddCommitHook(h CommitHook) {
	s.hooks = append(s.hooks, h)
}

// SetObserver installs the frame observer (nil removes it). Set it between
// frames, not during Step.
func (s *Scheduler) SetObserver(o Observer) {
	s.observer = o
}

// Step executes one frame: tick every task in registration order, then run
// the commit hooks. Task and hook errors are collected and joined; the frame
// counter advances regardless so that a failed probe does not desynchronize
// the system.
func (s *Scheduler) Step() error {
	if s.closed {
		return ErrClosed
	}
	if s.epoch.IsZero() {
		s.epoch = time.Now()
	}
	ctx := Context{Frame: s.frame, Len: s.frameLen}
	workStart := time.Now()
	if s.observer != nil {
		s.observer.BeginFrame(ctx)
	}
	rep := Report{Frame: ctx.Frame, Tasks: len(s.tasks), Hooks: len(s.hooks)}

	var errs []error
	for _, t := range s.tasks {
		if err := t.Tick(ctx); err != nil {
			rep.TaskErrs++
			//lint:allow allocfree fail-stop halt path: a task error ends the mission, so this frame is outside the steady-state WCET budget
			errs = append(errs, fmt.Errorf("task %q frame %d: %w", t.TaskID(), ctx.Frame, err))
		}
	}

	for _, h := range s.hooks {
		if err := h(ctx); err != nil {
			rep.HookErrs++
			//lint:allow allocfree fail-stop halt path: a hook error ends the mission, so this frame is outside the steady-state WCET budget
			errs = append(errs, fmt.Errorf("commit hook frame %d: %w", ctx.Frame, err))
		}
	}
	if s.observer != nil {
		s.observer.EndFrame(rep)
	}

	work := time.Since(workStart)
	if work > s.stats.MaxFrameWork {
		s.stats.MaxFrameWork = work
	}
	s.frame++
	s.stats.Frames++

	if s.pace {
		deadline := s.epoch.Add(time.Duration(s.frame) * s.frameLen)
		if now := time.Now(); now.Before(deadline) {
			time.Sleep(deadline.Sub(now))
		} else {
			s.stats.Overruns++
		}
	}
	return errors.Join(errs...)
}

// Run executes n consecutive frames, stopping at the first frame that
// reports an error.
func (s *Scheduler) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// RunUntil executes frames until stop returns true (checked after each
// frame) or maxFrames have run. It reports whether stop fired.
func (s *Scheduler) RunUntil(maxFrames int, stop func() bool) (bool, error) {
	for i := 0; i < maxFrames; i++ {
		if err := s.Step(); err != nil {
			return false, err
		}
		if stop() {
			return true, nil
		}
	}
	return false, nil
}

// Close drops every task and marks the scheduler unusable. Close is
// idempotent.
func (s *Scheduler) Close() {
	s.closed = true
	s.tasks, s.byID = nil, nil
}
