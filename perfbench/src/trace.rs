//! Spans recorded by the benchmark's drivers around each call into a layer.
//!
//! Tracing is off unless [`set_enabled`] turned it on; a disabled [`span`]
//! costs one relaxed load.  An enabled span is pushed, when it closes, into
//! the recording thread's own buffer; [`drain`] collects every buffer after
//! the traced iteration's runtime has shut down.  A span's parent is the
//! innermost span still open on the same thread, so a job that a blocked
//! `get` or `join` runs by helping nests under that `get` or `join`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The layer boundary a span wraps.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    PromiseNew,
    PromiseSet,
    PromiseGet,
    Spawn,
    Join,
    Finish,
    FinishBody,
    /// A task body; nests under a `get`/`join` when run by helping.
    Task,
    ChannelSend,
    ChannelRecv,
    Reclaim,
    Generate,
    RunProgram,
}

/// One closed span.
#[derive(Copy, Clone, Debug)]
pub struct Span {
    pub layer: Layer,
    pub id: u64,
    pub parent: Option<u64>,
    pub iteration: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

type Buffer = Arc<Mutex<Vec<Span>>>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ITERATION: AtomicU32 = AtomicU32::new(0);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
static BUFFERS: Mutex<Vec<Buffer>> = Mutex::new(Vec::new());

struct Local {
    /// High bits of this thread's span ids.
    thread: u64,
    next: u64,
    open: Vec<u64>,
    spans: Buffer,
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::register());
}

impl Local {
    fn register() -> Local {
        let spans = Buffer::default();
        BUFFERS
            .lock()
            .expect("span registry poisoned")
            .push(Arc::clone(&spans));
        Local {
            thread: u64::from(NEXT_THREAD.fetch_add(1, Ordering::Relaxed)) << 32,
            next: 0,
            open: Vec::new(),
            spans,
        }
    }
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Tags spans opened from now on with iteration `i`.
pub fn set_iteration(i: u32) {
    ITERATION.store(i, Ordering::Relaxed);
}

/// Runs `f`, recording it as a span of `layer` when tracing is on.
#[inline]
pub fn span<R>(layer: Layer, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    let _open = Open::new(layer);
    f()
}

/// An open span; recorded when dropped, also during unwinding.
struct Open {
    layer: Layer,
    id: u64,
    parent: Option<u64>,
    iteration: u32,
    start_ns: u64,
}

impl Open {
    fn new(layer: Layer) -> Open {
        let (id, parent) = LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            let id = l.thread | l.next;
            l.next += 1;
            let parent = l.open.last().copied();
            l.open.push(id);
            (id, parent)
        });
        Open {
            layer,
            id,
            parent,
            iteration: ITERATION.load(Ordering::Relaxed),
            start_ns: now_ns(),
        }
    }
}

impl Drop for Open {
    fn drop(&mut self) {
        let end_ns = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.open.pop();
            // Each thread locks only its own buffer; `drain` is the sole
            // other user and runs after the threads have finished.
            if let Ok(mut spans) = l.spans.lock() {
                spans.push(Span {
                    layer: self.layer,
                    id: self.id,
                    parent: self.parent,
                    iteration: self.iteration,
                    start_ns: self.start_ns,
                    end_ns,
                });
            };
        });
    }
}

/// Takes every recorded span out of every thread's buffer and forgets the
/// buffers of threads that have exited.
pub fn drain() -> Vec<Span> {
    let mut buffers = BUFFERS.lock().expect("span registry poisoned");
    let mut out = Vec::new();
    for b in buffers.iter() {
        out.append(&mut b.lock().expect("span buffer poisoned"));
    }
    buffers.retain(|b| Arc::strong_count(b) > 1);
    out
}

/// Self time of every span: its duration minus the part of it that its
/// children cover.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(layer: Layer, id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            layer,
            id,
            parent,
            iteration: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_excludes_children_and_helped_jobs() {
        // A task body [0, 200) calls get [10, 110) and spawn [120, 130).
        // The get blocks and runs another task by helping, [20, 70), which
        // itself spawns [30, 40) and sets [50, 55).
        let spans = [
            s(Layer::Task, 1, None, 0, 200),
            s(Layer::PromiseGet, 2, Some(1), 10, 110),
            s(Layer::Spawn, 3, Some(1), 120, 130),
            s(Layer::Task, 4, Some(2), 20, 70),
            s(Layer::Spawn, 5, Some(4), 30, 40),
            s(Layer::PromiseSet, 6, Some(4), 50, 55),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 200 - 100 - 10);
        assert_eq!(st[&2], 100 - 50, "the helped job is not get self time");
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 50 - 10 - 5);
        assert_eq!(st[&5], 10);
        assert_eq!(st[&6], 5);
        // Self times partition the root span.
        assert_eq!(st.values().sum::<u64>(), 200);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = [
            s(Layer::Join, 1, None, 100, 200),
            s(Layer::Task, 2, Some(1), 90, 130),
            s(Layer::Task, 3, Some(1), 120, 150),
            s(Layer::Task, 4, Some(1), 190, 250),
        ];
        // Covered inside [100, 200): [100, 150) and [190, 200).
        assert_eq!(self_times(&spans)[&1], 100 - 50 - 10);
    }

    #[test]
    fn recorded_spans_nest_by_thread() {
        // Other tests never enable tracing, so this test owns the recorder.
        set_enabled(true);
        set_iteration(7);
        span(Layer::Finish, || {
            span(Layer::Spawn, || ());
            std::thread::spawn(|| span(Layer::Task, || ()))
                .join()
                .expect("traced thread panicked");
        });
        set_enabled(false);
        span(Layer::Join, || ());
        let spans = drain();
        assert_eq!(spans.len(), 3, "{spans:?}");
        let finish = spans.iter().find(|s| s.layer == Layer::Finish).unwrap();
        let spawn = spans.iter().find(|s| s.layer == Layer::Spawn).unwrap();
        let task = spans.iter().find(|s| s.layer == Layer::Task).unwrap();
        assert_eq!(finish.parent, None);
        assert_eq!(spawn.parent, Some(finish.id));
        assert_eq!(task.parent, None, "other threads start their own tree");
        assert!(spans.iter().all(|s| s.iteration == 7));
        assert!(drain().is_empty());
    }
}
