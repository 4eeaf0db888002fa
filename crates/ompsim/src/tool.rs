//! The OMPT-like tool callback interface.
//!
//! A [`Tool`] observes the runtime the way an OMPT-based tool observes the
//! OpenMP runtime: region begin/end in the forking thread, per-worker
//! thread begin/end, barrier crossings split into a pre-wait and post-wait
//! half (so happens-before tools can publish and then adopt clocks), mutex
//! transitions, and the instrumented memory accesses.
//!
//! Accesses arrive as *runs*: the consecutive accesses one context issued
//! between two of its other callbacks, in issue order, at most
//! [`Tool::max_run`] at a time. A tool that keeps the default of 1 gets
//! each access at the moment it happens, one-element run by one-element
//! run — what a tool whose state is order-sensitive *across* threads
//! (shadow cells, vector clocks) needs. A tool that only appends to
//! per-thread state asks for more and pays the callback once per run.
//! Either way every other callback for a context comes after all the
//! accesses that context issued before it.
//!
//! All callbacks are invoked synchronously on the thread that performed
//! the action, concurrently across threads — tools synchronize their own
//! shared state, exactly as OMPT tools must. State that belongs to one
//! thread needs no synchronization at all: it goes in the [`ToolLocal`]
//! slot each callback carries.

use std::any::Any;
use std::cell::RefCell;

use sword_osl::Label;
use sword_trace::{MemAccess, MutexId, RegionId, ThreadId};

/// The OMPT `thread_data` analog: one slot per execution context
/// ([`Ctx`](crate::Ctx)), handed to every per-thread callback through
/// [`ThreadContext::tool_data`]. A tool parks whatever per-thread state it
/// wants there at `thread_begin`/`task_begin` and finds it again on each
/// later callback of the same context with a plain borrow — no map, no
/// thread-local lookup, no lock. Only the thread running the context ever
/// sees the slot, which is why a `RefCell` is enough.
///
/// The slot dies with its context: what a tool leaves in it at
/// `thread_end`/`task_end` is dropped when the worker returns.
#[derive(Default)]
pub struct ToolLocal(RefCell<Option<Box<dyn Any + Send>>>);

impl ToolLocal {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs `value`, returning whatever the slot held before.
    pub fn put<T: Any + Send>(&self, value: T) -> Option<Box<dyn Any + Send>> {
        self.0.borrow_mut().replace(Box::new(value))
    }

    /// Removes and returns the slot's value if it is a `T` (a value of
    /// another type stays put).
    pub fn take<T: Any + Send>(&self) -> Option<T> {
        let mut slot = self.0.borrow_mut();
        match slot.take()?.downcast::<T>() {
            Ok(value) => Some(*value),
            Err(other) => {
                *slot = Some(other);
                None
            }
        }
    }

    /// Runs `f` on the slot's value if it is a `T`. `f` must not reach
    /// back into the same slot.
    #[inline]
    pub fn with<T: Any + Send, R>(&self, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        self.0.borrow_mut().as_mut()?.downcast_mut::<T>().map(f)
    }
}

impl std::fmt::Debug for ToolLocal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = match self.0.try_borrow() {
            Ok(slot) if slot.is_some() => "occupied",
            Ok(_) => "empty",
            Err(_) => "borrowed",
        };
        f.debug_tuple("ToolLocal").field(&state).finish()
    }
}

/// Snapshot of a worker's position in the concurrency structure, passed to
/// every per-thread callback.
#[derive(Clone, Debug)]
pub struct ThreadContext<'a> {
    /// Global (pooled) thread id; owns one log file.
    pub tid: ThreadId,
    /// Current parallel region instance.
    pub region: RegionId,
    /// Parent region instance, if nested.
    pub parent_region: Option<RegionId>,
    /// Nesting level: 1 for a top-level region.
    pub level: u32,
    /// This thread's slot in its team (`0..span`).
    pub team_index: u64,
    /// Team size.
    pub span: u64,
    /// Barrier-interval id: 0 before the first barrier the thread crosses
    /// in this region.
    pub bid: u32,
    /// Full offset-span label, including barrier-generation bumps.
    pub label: &'a Label,
    /// The tool's slot on the context this callback runs for (OMPT
    /// `thread_data`). Two contexts never share a slot: a task body's
    /// callbacks carry the task context's slot, not its creator's.
    pub tool_data: &'a ToolLocal,
}

/// Information about a parallel region at fork time, delivered in the
/// forking thread before any worker starts.
#[derive(Clone, Debug)]
pub struct ParallelBeginInfo<'a> {
    /// The new region's id.
    pub region: RegionId,
    /// Enclosing region, if any.
    pub parent_region: Option<RegionId>,
    /// Nesting level of the new region (1 = top level).
    pub level: u32,
    /// Team size.
    pub span: u64,
    /// The forking thread's label at the fork point (the new workers'
    /// labels are `fork_label · [i, span]`).
    pub fork_label: &'a Label,
    /// The forking thread's id.
    pub fork_tid: ThreadId,
}

/// A session-unique explicit-task id.
pub type TaskUid = u64;

/// Information about an explicit task at creation time, delivered in the
/// creating thread before the continuation resumes.
///
/// Each creation is modeled as a binary pseudo-fork off the creator's
/// current label: the continuation relabels to
/// `fork_label · [0, TASK_SPAN]`, the task body runs under
/// `fork_label · [1, TASK_SPAN]`, and the next creation chains off the
/// continuation label (see `sword_osl::TASK_SPAN`).
#[derive(Clone, Debug)]
pub struct TaskCreateInfo<'a> {
    /// Session-unique task id.
    pub uid: TaskUid,
    /// The task's pseudo-region id (fresh, like a nested region's).
    pub region: RegionId,
    /// The creator's real enclosing region.
    pub parent_region: RegionId,
    /// Nesting level of the pseudo-region (creator's level + 1).
    pub level: u32,
    /// Pseudo-region ids of predecessor tasks this task `depend`s on
    /// (earlier siblings with a conflicting depend clause).
    pub preds: &'a [RegionId],
    /// The creator's label at the creation point including the task-fork
    /// pair — the pseudo-region's fork label.
    pub fork_label: &'a Label,
    /// The creating thread's id.
    pub creator_tid: ThreadId,
}

/// OMPT-like observer. All methods have empty defaults so tools override
/// only what they need.
#[allow(unused_variables)]
pub trait Tool: Send + Sync {
    /// The instrumented program is about to start.
    fn program_begin(&self) {}

    /// The instrumented program finished; flush and finalize.
    fn program_end(&self) {}

    /// A parallel region is being forked (called in the forking thread).
    fn parallel_begin(&self, info: &ParallelBeginInfo<'_>) {}

    /// The matching join completed (called in the forking thread).
    fn parallel_end(&self, region: RegionId, fork_tid: ThreadId) {}

    /// A worker entered a region (its first barrier interval starts).
    fn thread_begin(&self, ctx: &ThreadContext<'_>) {}

    /// A worker is leaving a region (its last barrier interval ends).
    fn thread_end(&self, ctx: &ThreadContext<'_>) {}

    /// The thread reached a barrier and is about to wait. `ctx.bid` is the
    /// interval being closed.
    fn barrier_begin(&self, ctx: &ThreadContext<'_>) {}

    /// Every team member arrived; the thread proceeds. `ctx.bid` and
    /// `ctx.label` already reflect the new interval.
    fn barrier_end(&self, ctx: &ThreadContext<'_>) {}

    /// An explicit task was created (called in the creating thread).
    /// `outer` is the creator's context *before* the creation:
    /// `outer.label` is the chain label the task forks off. After the
    /// callback the creator resumes under the continuation label.
    fn task_create(&self, outer: &ThreadContext<'_>, info: &TaskCreateInfo<'_>) {}

    /// A task body is starting on some team member. `outer` is the
    /// executing thread's own context being suspended; `task` carries the
    /// pseudo-region id and the task label.
    fn task_begin(&self, outer: &ThreadContext<'_>, task: &ThreadContext<'_>, uid: TaskUid) {}

    /// The task body finished; the executing thread resumes `outer`.
    fn task_end(&self, task: &ThreadContext<'_>, outer: &ThreadContext<'_>, uid: TaskUid) {}

    /// A task synchronization point (`taskwait` or taskgroup end)
    /// completed in the creating thread. `restored` reflects the label
    /// after the restore; `synced` lists the tasks guaranteed complete.
    fn task_sync(&self, restored: &ThreadContext<'_>, synced: &[TaskUid]) {}

    /// The thread acquired a mutex (holds it during the callback).
    fn mutex_acquired(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {}

    /// The thread is about to release a mutex (still holds it).
    fn mutex_released(&self, ctx: &ThreadContext<'_>, mutex: MutexId) {}

    /// How many consecutive accesses of one context the tool takes in one
    /// [`Tool::access`] call; asked once, when the tool is attached to an
    /// [`OmpSim`](crate::OmpSim). The runtime holds a context's accesses
    /// back until that many are pending or the context makes any other
    /// callback. More than 1 delays delivery relative to *other* threads'
    /// callbacks, so only a tool that needs no cross-thread order between
    /// accesses may ask for it.
    fn max_run(&self) -> usize {
        1
    }

    /// A run of instrumented memory accesses inside a parallel region:
    /// `run` (never empty, at most [`Tool::max_run`] long) is what `ctx`
    /// issued, in order, since its previous callback of any kind, and
    /// `ctx` is the context every one of them was issued under.
    fn access(&self, ctx: &ThreadContext<'_>, run: &[MemAccess]) {}
}

/// A tool that observes nothing — baseline runs use it implicitly.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTool;

impl Tool for NullTool {}

#[cfg(test)]
mod tests {
    use super::*;
    use sword_osl::Label;

    #[test]
    fn default_methods_are_noops() {
        let t = NullTool;
        let label = Label::root().fork(0, 2);
        let tool_data = ToolLocal::new();
        let ctx = ThreadContext {
            tid: 0,
            region: 1,
            parent_region: None,
            level: 1,
            team_index: 0,
            span: 2,
            bid: 0,
            label: &label,
            tool_data: &tool_data,
        };
        t.program_begin();
        t.thread_begin(&ctx);
        assert_eq!(t.max_run(), 1);
        t.access(&ctx, &[MemAccess::new(0, 8, sword_trace::AccessKind::Read, 0)]);
        t.barrier_begin(&ctx);
        t.barrier_end(&ctx);
        t.mutex_acquired(&ctx, 0);
        t.mutex_released(&ctx, 0);
        t.thread_end(&ctx);
        t.program_end();
    }

    #[test]
    fn tool_local_is_typed_and_survives_a_wrong_typed_take() {
        let slot = ToolLocal::new();
        assert_eq!(slot.with(|n: &mut u32| *n), None, "empty slot");
        assert!(slot.put(7u32).is_none());
        assert_eq!(slot.with(|n: &mut u32| std::mem::replace(n, 8)), Some(7));
        assert_eq!(slot.with(|s: &mut String| s.len()), None, "wrong type is not found");
        assert_eq!(slot.take::<String>(), None);
        assert_eq!(slot.take::<u32>(), Some(8), "a wrong-typed take left the value in place");
        assert_eq!(slot.take::<u32>(), None);
        assert_eq!(format!("{slot:?}"), "ToolLocal(\"empty\")");
    }
}
