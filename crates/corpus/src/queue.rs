//! A bounded multi-producer/multi-consumer queue on `std` primitives.
//!
//! The offline build rules out `crossbeam`; a `Mutex<VecDeque>` plus a
//! `Condvar` is entirely sufficient for a serving queue whose items are
//! shard-sized units of work (the lock is held for a push or a pop, never
//! for the work itself).
//!
//! Two properties matter for the service built on top:
//!
//! * **Admission is all-or-nothing and never blocks.** A request fans out
//!   into one item per shard; [`BoundedQueue::try_push_all`] either
//!   admits the whole batch within the capacity bound or rejects it
//!   immediately with [`PushError::Full`] — callers get a typed
//!   `Overloaded` signal instead of unbounded queueing or a deadlocked
//!   producer.
//! * **Close drains.** After [`BoundedQueue::close`], producers are
//!   refused but consumers keep popping until the queue is empty, then
//!   observe `None` — the graceful-shutdown contract.
//! * **Hold pauses consumers.** Between [`BoundedQueue::hold`] and
//!   [`BoundedQueue::release`] consumers pop nothing, so admission
//!   outcomes can be driven exactly instead of racing the consumers.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// Admitting the batch would exceed the capacity bound.
    Full {
        /// Items queued at the time of refusal.
        queued: usize,
        /// The capacity bound.
        capacity: usize,
    },
    /// The queue was closed.
    Closed,
}

struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
    held: bool,
}

/// A bounded MPMC queue (see the [module docs](self)).
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue admitting at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                closed: false,
                held: false,
            }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits every item of `batch` atomically, or none: if the batch
    /// does not fit under the capacity bound (or the queue is closed)
    /// the whole batch is handed back with the reason. Never blocks.
    pub fn try_push_all(&self, batch: Vec<T>) -> Result<(), (PushError, Vec<T>)> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err((PushError::Closed, batch));
        }
        if inner.items.len() + batch.len() > self.capacity {
            return Err((
                PushError::Full {
                    queued: inner.items.len(),
                    capacity: self.capacity,
                },
                batch,
            ));
        }
        let n = batch.len();
        inner.items.extend(batch);
        drop(inner);
        if n == 1 {
            self.not_empty.notify_one();
        } else if n > 1 {
            self.not_empty.notify_all();
        }
        Ok(())
    }

    /// Pops the oldest item, blocking while the queue is empty but open,
    /// or held. Returns `None` once the queue is closed **and** drained;
    /// a closed queue drains even while held.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if !inner.held || inner.closed {
                if let Some(item) = inner.items.pop_front() {
                    return Some(item);
                }
                if inner.closed {
                    return None;
                }
            }
            inner = self.not_empty.wait(inner).expect("queue poisoned");
        }
    }

    /// Stops consumers from popping until [`release`](Self::release);
    /// pushes are admitted as usual.
    pub fn hold(&self) {
        self.inner.lock().expect("queue poisoned").held = true;
    }

    /// Lets consumers pop again and wakes every blocked one.
    pub fn release(&self) {
        self.inner.lock().expect("queue poisoned").held = false;
        self.not_empty.notify_all();
    }

    /// Refuses all further pushes and wakes every blocked consumer.
    /// Already-queued items remain poppable (close-then-drain).
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.not_empty.notify_all();
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_within_capacity() {
        let q = BoundedQueue::new(4);
        q.try_push_all(vec![1, 2, 3]).unwrap();
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
    }

    #[test]
    fn held_queue_admits_but_pops_nothing_until_released() {
        let q = Arc::new(BoundedQueue::new(2));
        q.hold();
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        q.try_push_all(vec![1, 2]).unwrap();
        assert!(
            q.try_push_all(vec![3]).is_err(),
            "held items keep their slots"
        );
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.len(), 2, "a held queue pops nothing");
        q.release();
        assert_eq!(consumer.join().unwrap(), Some(1));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn admission_is_all_or_nothing() {
        let q = BoundedQueue::new(3);
        q.try_push_all(vec![1, 2]).unwrap();
        let (err, batch) = q.try_push_all(vec![3, 4]).unwrap_err();
        assert_eq!(
            err,
            PushError::Full {
                queued: 2,
                capacity: 3
            }
        );
        assert_eq!(batch, vec![3, 4]);
        assert_eq!(q.len(), 2, "no partial admission");
        // a batch that fits is still admitted
        q.try_push_all(vec![5]).unwrap();
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn close_drains_then_stops() {
        let q = BoundedQueue::new(8);
        q.try_push_all(vec![1, 2]).unwrap();
        q.close();
        assert_eq!(
            q.try_push_all(vec![3]).unwrap_err().0,
            PushError::Closed,
            "no pushes after close"
        );
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn blocked_consumers_wake_on_close() {
        let q = Arc::new(BoundedQueue::<u32>::new(2));
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || q.pop())
            })
            .collect();
        q.try_push_all(vec![7]).unwrap();
        q.close();
        let got: Vec<Option<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(got.iter().filter(|o| o.is_some()).count(), 1);
        assert_eq!(got.iter().filter(|o| o.is_none()).count(), 2);
    }

    #[test]
    fn concurrent_producers_and_consumers_conserve_items() {
        let q = Arc::new(BoundedQueue::new(1024));
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        std::thread::scope(|s| {
            for p in 0..4 {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for i in 0..64 {
                        q.try_push_all(vec![p * 64 + i]).unwrap();
                    }
                });
            }
        });
        q.close();
        let mut all: Vec<u32> = consumers
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..256).collect::<Vec<u32>>());
    }
}
