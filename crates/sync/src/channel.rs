//! The promise-backed channel of Listing 4.
//!
//! A [`Channel`] behaves like a promise that can be used repeatedly: the
//! *n*-th `recv` obtains the value supplied by the *n*-th `send`.  Internally
//! it is a linked list of one-shot promises:
//!
//! * the channel holds a `producer` promise (the next cell the sender will
//!   fill) and a `consumer` promise (the next cell the receiver will read);
//! * `send(v)` allocates a fresh promise `next`, fulfils the current producer
//!   cell with `(v, next)`, and advances the producer to `next`;
//! * `recv()` gets the consumer cell, advances to its `next`, and returns the
//!   value;
//! * `stop()` fulfils the producer cell with an end-of-stream marker.
//!
//! Performance: a `recv` from a non-empty channel reads an already-set cell
//! promise, which the lock-free payload cell serves with one acquire load.
//! The channel's own `producer`/`consumer` mutexes stay: they guard *which
//! promise is current* (advancing the chain head/tail), not the payload, and
//! deliberately serialise competing receivers on one end.  A `send` takes
//! one lock: the cell counter lives under the `producer` mutex.
//!
//! Names: the *n*-th cell of a channel made with [`Channel::with_name`] is a
//! promise named `"label[n]"`, counting from 0, so alarms and the event log
//! say which cell of which channel was abandoned or waited on.  The cell
//! keeps the channel's shared label and its index and renders the text only
//! when something reads the name (see [`promise_core::Name`]): a `send`
//! formats nothing and allocates no name, and with name capture off (the
//! unverified baseline's default) the cell stores no name at all.
//!
//! Ownership: the sender always owns exactly one unfulfilled promise — the
//! current producer cell.  The channel implements
//! [`PromiseCollection`], contributing exactly that promise, so `spawn(&ch,
//! …)` moves the *sending responsibility* to the new task (Listing 4
//! line 39), while any task may receive.  A sender that terminates without
//! either stopping the channel or handing it to another task is reported as
//! an omitted set — exactly the paper's notion of an abandoned obligation.

use std::sync::Arc;

use parking_lot::Mutex;

use promise_core::{Promise, PromiseCollection, PromiseError, TransferList};

/// One cell of the channel's promise chain.
enum Cell<T> {
    /// A value plus the promise that will carry the following cell.
    Item(T, Promise<Cell<T>>),
    /// End of stream.
    Closed,
}

impl<T: Clone> Clone for Cell<T> {
    fn clone(&self) -> Self {
        match self {
            Cell::Item(v, next) => Cell::Item(v.clone(), next.clone()),
            Cell::Closed => Cell::Closed,
        }
    }
}

/// The sending end: the current producer cell and the cell counter, under
/// one lock.
struct Producer<T> {
    /// The promise the next `send`/`stop` will fulfil.
    cell: Promise<Cell<T>>,
    /// Monotone counter naming successive cells (diagnostics only).
    sent: u64,
}

struct ChannelState<T> {
    producer: Mutex<Producer<T>>,
    /// The promise the next `recv` will read.
    consumer: Mutex<Promise<Cell<T>>>,
    /// Optional label the cell promises are named after.
    label: Option<Arc<str>>,
}

/// A multi-shot, promise-backed channel (Listing 4 of the paper).
///
/// Handles are cheap clones of a shared state; the ownership policy — not the
/// handle — decides who may send: only the task owning the current producer
/// promise can `send` or `stop`, and that ownership moves between tasks by
/// listing the channel in a spawn's transfer set.
pub struct Channel<T: Clone + Send + Sync + 'static> {
    state: Arc<ChannelState<T>>,
}

impl<T: Clone + Send + Sync + 'static> Clone for Channel<T> {
    fn clone(&self) -> Self {
        Channel {
            state: Arc::clone(&self.state),
        }
    }
}

impl<T: Clone + Send + Sync + 'static> Channel<T> {
    /// Creates a channel whose sending end is initially owned by the current
    /// task.
    ///
    /// # Panics
    ///
    /// Panics if the calling thread has no active task.
    pub fn new() -> Self {
        Self::build(None)
    }

    /// Creates a named channel; the label shows up in alarms that involve the
    /// channel's internal promises.
    pub fn with_name(label: &str) -> Self {
        Self::build(Some(label))
    }

    fn build(label: Option<&str>) -> Self {
        let label: Option<Arc<str>> = label.map(Arc::from);
        let first = cell_promise(label.as_ref(), 0);
        Channel {
            state: Arc::new(ChannelState {
                producer: Mutex::new(Producer {
                    cell: first.clone(),
                    sent: 0,
                }),
                consumer: Mutex::new(first),
                label,
            }),
        }
    }

    /// Sends a value.  Fails if the calling task does not own the sending end
    /// (ownership policy) or the channel has been stopped.
    pub fn send(&self, value: T) -> Result<(), PromiseError> {
        let mut producer = self.state.producer.lock();
        producer.sent += 1;
        // Allocate the next cell first (Listing 4 line 19): the new promise
        // is owned by the sending task, which thereby keeps exactly one
        // outstanding obligation — the tail of the stream.
        let next = cell_promise(self.state.label.as_ref(), producer.sent);
        if let Err(e) = producer.cell.set(Cell::Item(value, next.clone())) {
            // The send was refused (not the owner / already stopped).  The
            // speculatively allocated tail promise belongs to the caller and
            // would otherwise linger as a bogus obligation; retire it.
            let _ = next.set(Cell::Closed);
            return Err(e);
        }
        producer.cell = next;
        Ok(())
    }

    /// Closes the channel: receivers see end-of-stream after all previously
    /// sent values.  Fails if the calling task does not own the sending end.
    pub fn stop(&self) -> Result<(), PromiseError> {
        self.state.producer.lock().cell.set(Cell::Closed)
    }

    /// Receives the next value, blocking until one is available.  Returns
    /// `Ok(None)` at end-of-stream.
    ///
    /// Blocking uses a promise `get`, so a receive that would complete a
    /// deadlock cycle raises [`PromiseError::DeadlockDetected`], and a sender
    /// that died without stopping the channel surfaces as
    /// [`PromiseError::OmittedSet`].
    pub fn recv(&self) -> Result<Option<T>, PromiseError> {
        let mut consumer = self.state.consumer.lock();
        let cell = consumer.get()?;
        match cell {
            Cell::Item(value, next) => {
                *consumer = next;
                Ok(Some(value))
            }
            Cell::Closed => Ok(None),
        }
    }

    /// Non-blocking receive: `Ok(None)` means "nothing available yet", while
    /// `Ok(Some(None))` means the channel is closed.
    pub fn try_recv(&self) -> Result<Option<Option<T>>, PromiseError> {
        let mut consumer = self.state.consumer.lock();
        match consumer.try_get() {
            None => Ok(None),
            Some(Err(e)) => Err(e),
            Some(Ok(Cell::Item(value, next))) => {
                *consumer = next;
                Ok(Some(Some(value)))
            }
            Some(Ok(Cell::Closed)) => Ok(Some(None)),
        }
    }

    /// Drains the channel until end-of-stream, collecting every value.
    pub fn recv_all(&self) -> Result<Vec<T>, PromiseError> {
        let mut out = Vec::new();
        while let Some(v) = self.recv()? {
            out.push(v);
        }
        Ok(out)
    }

    /// Number of values sent so far (diagnostics).
    pub fn sent_count(&self) -> u64 {
        self.state.producer.lock().sent
    }

    /// The channel's label, if any.
    pub fn label(&self) -> Option<String> {
        self.state.label.as_deref().map(str::to_owned)
    }
}

/// Cell `index` of a channel: named `"label[index]"` when the channel has a
/// label, rendered only if something reads the name.
fn cell_promise<T: Send + Sync + 'static>(label: Option<&Arc<str>>, index: u64) -> Promise<T> {
    let promise = match label {
        Some(l) => Promise::try_new_indexed(l, index),
        None => Promise::try_new(None),
    };
    promise
        .expect("a Channel requires a current task; run inside Runtime::block_on or a spawned task")
}

impl<T: Clone + Send + Sync + 'static> Default for Channel<T> {
    fn default() -> Self {
        Channel::new()
    }
}

impl<T: Clone + Send + Sync + 'static> PromiseCollection for Channel<T> {
    /// Moving a channel moves its *current producer promise* — i.e. the
    /// responsibility for the sending end (Listing 4, `getPromises`).
    fn append_promises(&self, out: &mut TransferList) {
        out.push(self.state.producer.lock().cell.as_erased());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promise_core::{Alarm, OmittedSetReport, VerificationMode};
    use promise_runtime::{spawn, spawn_named, Runtime};

    #[test]
    fn in_task_send_then_recv_preserves_fifo_order() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<i32>::with_name("fifo");
            for i in 0..10 {
                ch.send(i).unwrap();
            }
            ch.stop().unwrap();
            assert_eq!(ch.recv_all().unwrap(), (0..10).collect::<Vec<_>>());
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
    }

    #[test]
    fn listing_4_example() {
        // main: send(1); async(ch) { send(2); stop() }; recv()==1; recv()==2
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<i32>::with_name("ch");
            ch.send(1).unwrap();
            let h = spawn_named("producer", &ch, {
                let ch = ch.clone();
                move || {
                    ch.send(2).unwrap();
                    ch.stop().unwrap();
                }
            });
            assert_eq!(ch.recv().unwrap(), Some(1));
            assert_eq!(ch.recv().unwrap(), Some(2));
            assert_eq!(ch.recv().unwrap(), None);
            h.join().unwrap();
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
    }

    /// The omitted-set report of a sender task that exits without
    /// `stop()`, with names captured or not.
    fn abandoning_sender_report(capture_names: bool) -> Arc<OmittedSetReport> {
        let rt = Runtime::builder().capture_names(capture_names).build();
        let report = rt
            .block_on(|| {
                let ch = Channel::<i32>::with_name("abandoned");
                let h = spawn_named("lazy-producer", &ch, {
                    let ch = ch.clone();
                    move || {
                        ch.send(1).unwrap();
                        // forgot to stop() or hand the channel off
                    }
                });
                assert_eq!(ch.recv().unwrap(), Some(1));
                // The tail promise was abandoned; the receiver observes the
                // omitted set instead of blocking forever.
                let err = ch.recv().unwrap_err();
                assert!(h.join().is_err());
                match err {
                    PromiseError::OmittedSet(report) => report,
                    other => panic!("expected an omitted set, got {other}"),
                }
            })
            .unwrap();
        assert_eq!(rt.context().alarm_count(), 1);
        report
    }

    #[test]
    fn sender_that_abandons_the_channel_is_blamed() {
        let report = abandoning_sender_report(true);
        assert_eq!(report.task_name.as_deref(), Some("lazy-producer"));
        let names: Vec<_> = report
            .promises
            .iter()
            .map(|p| p.promise_name.as_deref())
            .collect();
        assert_eq!(
            names,
            [Some("abandoned[1]")],
            "the unsent tail cell is blamed"
        );

        let report = abandoning_sender_report(false);
        assert_eq!(report.promises.len(), 1);
        assert_eq!(report.promises[0].promise_name, None);
    }

    /// A named channel's current producer cell reads `"label[n]"` through
    /// `Promise::name()`, `Debug` and the erased handle, and every set
    /// event in the JSONL event log names its cell — or nothing at all
    /// when names are not captured.
    #[test]
    fn cell_names_read_label_and_index() {
        for capture_names in [true, false] {
            let rt = Runtime::builder()
                .capture_names(capture_names)
                .event_log(true)
                .build();
            rt.block_on(|| {
                let ch = Channel::<i32>::with_name("cells");
                ch.send(1).unwrap();
                ch.send(2).unwrap();
                let cell = ch.state.producer.lock().cell.clone();
                let erased = cell.as_erased();
                let expected = capture_names.then_some("cells[2]");
                assert_eq!(cell.name().as_deref(), expected);
                assert_eq!(erased.name().as_deref(), expected);
                let debug = format!("{cell:?}");
                match expected {
                    Some(name) => {
                        assert!(debug.contains(&format!("name: Some({name:?})")), "{debug}")
                    }
                    None => assert!(debug.contains("name: None"), "{debug}"),
                }
                ch.stop().unwrap();
                assert_eq!(ch.recv_all().unwrap(), [1, 2]);
            })
            .unwrap();
            let jsonl = rt.context().event_log().unwrap().to_jsonl();
            let set_names: Vec<Option<&str>> = jsonl
                .lines()
                .filter(|l| l.contains("\"kind\":\"set\""))
                .map(|l| {
                    let key = "\"promise_name\":\"";
                    l.find(key).map(|at| {
                        let rest = &l[at + key.len()..];
                        &rest[..rest.find('"').unwrap()]
                    })
                })
                .collect();
            let expected: &[Option<&str>] = if capture_names {
                &[Some("cells[0]"), Some("cells[1]"), Some("cells[2]")]
            } else {
                &[None, None, None]
            };
            assert_eq!(set_names, expected, "{jsonl}");
        }
    }

    /// One side of a two-channel cycle: send one value, receive the other
    /// side's, then block on the other side's next cell.  Whichever side
    /// closes the cycle gets the deadlock error and stops its channel,
    /// which ends the other side's wait.
    fn cycle_side(mine: &Channel<i32>, theirs: &Channel<i32>) {
        mine.send(0).unwrap();
        assert_eq!(theirs.recv().unwrap(), Some(0));
        match theirs.recv() {
            Err(PromiseError::DeadlockDetected(_)) | Ok(None) => {}
            other => panic!("expected a deadlock or end of stream, got {other:?}"),
        }
        mine.stop().unwrap();
    }

    /// A deadlock-cycle report names the channel cell its blocked `get`
    /// waited on: the root waits on `b[1]`, the child on `a[1]`.
    #[test]
    fn deadlock_cycle_report_names_the_awaited_cell() {
        for capture_names in [true, false] {
            let rt = Runtime::builder().capture_names(capture_names).build();
            rt.block_on(|| {
                let a = Channel::<i32>::with_name("a");
                let b = Channel::<i32>::with_name("b");
                let h = spawn_named("b-sender", &b, {
                    let (a, b) = (a.clone(), b.clone());
                    move || cycle_side(&b, &a)
                });
                cycle_side(&a, &b);
                h.join().unwrap();
            })
            .unwrap();
            let cycles: Vec<_> = rt
                .context()
                .alarms()
                .into_iter()
                .filter_map(|alarm| match alarm {
                    Alarm::Deadlock(cycle) => Some(cycle),
                    _ => None,
                })
                .collect();
            assert!(!cycles.is_empty(), "the cycle was not detected");
            assert_eq!(rt.context().alarm_count(), cycles.len());
            for cycle in cycles {
                let closing = &cycle.entries[0];
                let expected = match closing.task_name.as_deref() {
                    Some("b-sender") => Some("a[1]"),
                    Some(_) => Some("b[1]"),
                    None => None,
                };
                assert_eq!(closing.promise_name.as_deref(), expected, "{cycle}");
            }
        }
    }

    #[test]
    fn non_owner_cannot_send() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<i32>::new();
            // Hand the sending end to a child…
            let h = spawn_named("owner", &ch, {
                let ch = ch.clone();
                move || {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    ch.send(7).unwrap();
                    ch.stop().unwrap();
                }
            });
            // …then the parent may no longer send.
            let err = ch.send(0).unwrap_err();
            assert!(matches!(err, PromiseError::NotOwner { .. }));
            assert_eq!(ch.recv().unwrap(), Some(7));
            assert_eq!(ch.recv().unwrap(), None);
            h.join().unwrap();
        })
        .unwrap();
    }

    #[test]
    fn try_recv_reports_pending_then_values_then_close() {
        let rt = Runtime::new();
        rt.block_on(|| {
            let ch = Channel::<u8>::new();
            assert_eq!(ch.try_recv().unwrap(), None);
            ch.send(9).unwrap();
            assert_eq!(ch.try_recv().unwrap(), Some(Some(9)));
            assert_eq!(ch.try_recv().unwrap(), None);
            ch.stop().unwrap();
            assert_eq!(ch.try_recv().unwrap(), Some(None));
        })
        .unwrap();
    }

    #[test]
    fn ping_pong_between_two_tasks() {
        let rt = Runtime::new();
        let rounds = 50;
        rt.block_on(|| {
            let ping = Channel::<u32>::with_name("ping");
            let pong = Channel::<u32>::with_name("pong");
            // The child owns the sending end of `pong`; the root keeps `ping`.
            let h = spawn_named("pong-side", &pong, {
                let ping = ping.clone();
                let pong = pong.clone();
                move || {
                    while let Some(v) = ping.recv().unwrap() {
                        pong.send(v + 1).unwrap();
                    }
                    pong.stop().unwrap();
                }
            });
            let mut value = 0;
            for _ in 0..rounds {
                ping.send(value).unwrap();
                value = pong.recv().unwrap().unwrap();
            }
            ping.stop().unwrap();
            assert_eq!(pong.recv().unwrap(), None);
            assert_eq!(value, rounds);
            h.join().unwrap();
        })
        .unwrap();
        assert_eq!(rt.context().alarm_count(), 0);
    }

    #[test]
    fn channels_work_in_baseline_mode_too() {
        let rt = Runtime::builder()
            .verification(VerificationMode::Unverified)
            .build();
        rt.block_on(|| {
            let ch = Channel::<i32>::new();
            let h = spawn(&ch, {
                let ch = ch.clone();
                move || {
                    for i in 0..100 {
                        ch.send(i).unwrap();
                    }
                    ch.stop().unwrap();
                }
            });
            assert_eq!(ch.recv_all().unwrap().len(), 100);
            h.join().unwrap();
        })
        .unwrap();
    }
}
