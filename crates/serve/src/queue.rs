//! Bounded, starvation-free admission queue.
//!
//! Admission control is the service's survival mechanism: the queue has
//! a hard capacity and a full queue **rejects** (the 429 path, with a
//! retry-after estimate) instead of buffering without bound. Scheduling
//! is priority-ordered (0 = highest) with **aging**: a queued job's
//! effective priority improves by one level per [`QueueConfig::age_to_boost`]
//! waited, so every job eventually reaches priority 0 and low-priority
//! traffic cannot starve behind a steady high-priority stream. Ties
//! break FIFO by submission sequence.

use crate::proto::SubmitReq;
use bgp_snapshot::CacheKey;
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Queue policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct QueueConfig {
    /// Hard bound on queued (admitted, not yet running) jobs.
    pub capacity: usize,
    /// Wait time that improves a job's effective priority by one level.
    pub age_to_boost: Duration,
}

impl Default for QueueConfig {
    fn default() -> QueueConfig {
        QueueConfig { capacity: 64, age_to_boost: Duration::from_millis(500) }
    }
}

/// One admitted job waiting for a worker.
#[derive(Clone, Debug)]
pub struct QueueItem {
    /// Content address of the job's result.
    pub key: CacheKey,
    /// The submission that created it.
    pub req: SubmitReq,
    /// Requested priority (0 = highest).
    pub priority: u8,
    /// Admission sequence number (FIFO tie-break).
    pub seq: u64,
    /// When the job was admitted (aging reference point).
    pub enqueued: Instant,
}

impl QueueItem {
    /// Priority after aging: one level better per `age_to_boost` waited.
    fn effective_priority(&self, now: Instant, age_to_boost: Duration) -> u8 {
        let boosts = if age_to_boost.is_zero() {
            u32::MAX
        } else {
            (now.saturating_duration_since(self.enqueued).as_nanos()
                / age_to_boost.as_nanos().max(1)) as u32
        };
        self.priority.saturating_sub(boosts.min(u8::MAX as u32) as u8)
    }
}

/// Why a push was refused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PushError {
    /// Queue at capacity — the backpressure path.
    Full {
        /// Depth at rejection time (for the retry-after estimate).
        depth: usize,
    },
    /// Queue closed (service draining or shut down).
    Closed,
}

struct Inner {
    items: VecDeque<QueueItem>,
    next_seq: u64,
    closed: bool,
}

/// The bounded priority queue workers pop from.
pub struct JobQueue {
    cfg: QueueConfig,
    inner: Mutex<Inner>,
    cv: Condvar,
}

impl JobQueue {
    /// An empty queue with the given policy.
    pub fn new(cfg: QueueConfig) -> JobQueue {
        JobQueue {
            cfg,
            inner: Mutex::new(Inner {
                items: VecDeque::new(),
                next_seq: 0,
                closed: false,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Admit a job.
    ///
    /// # Errors
    /// [`PushError::Full`] at capacity, [`PushError::Closed`] after
    /// [`JobQueue::close`].
    pub fn push(&self, key: CacheKey, req: SubmitReq) -> Result<usize, PushError> {
        let mut inner = self.lock();
        if inner.closed {
            return Err(PushError::Closed);
        }
        let depth = inner.items.len();
        if depth >= self.cfg.capacity {
            return Err(PushError::Full { depth });
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.items.push_back(QueueItem {
            key,
            req,
            priority: req.priority,
            seq,
            enqueued: Instant::now(),
        });
        drop(inner);
        self.cv.notify_one();
        Ok(depth + 1)
    }

    /// Block until a job is available and pop the best one — lowest
    /// effective (aged) priority, FIFO within a level. Returns `None`
    /// once the queue is closed **and** empty: the drain contract is
    /// that every admitted job is still handed to a worker.
    pub fn pop_blocking(&self) -> Option<QueueItem> {
        let mut inner = self.lock();
        loop {
            if let Some(item) = Self::pop_best(&mut inner, &self.cfg) {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn pop_best(inner: &mut Inner, cfg: &QueueConfig) -> Option<QueueItem> {
        let now = Instant::now();
        let best = inner
            .items
            .iter()
            .enumerate()
            .min_by_key(|(_, it)| (it.effective_priority(now, cfg.age_to_boost), it.seq))
            .map(|(i, _)| i)?;
        inner.items.remove(best)
    }

    /// Jobs currently queued.
    pub fn len(&self) -> usize {
        self.lock().items.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stop admitting; wake every popper so workers can drain and exit.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(seed: u64) -> CacheKey {
        CacheKey { spec: 0x5eed, seed }
    }

    fn req(priority: u8) -> SubmitReq {
        SubmitReq { priority, ..SubmitReq::default() }
    }

    fn queue(capacity: usize, age_ms: u64) -> JobQueue {
        JobQueue::new(QueueConfig {
            capacity,
            age_to_boost: Duration::from_millis(age_ms),
        })
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = queue(8, 60_000); // aging effectively off
        q.push(key(1), req(2)).unwrap();
        q.push(key(2), req(0)).unwrap();
        q.push(key(3), req(0)).unwrap();
        q.push(key(4), req(1)).unwrap();
        let order: Vec<u64> =
            (0..4).map(|_| q.pop_blocking().unwrap().key.seed).collect();
        assert_eq!(order, vec![2, 3, 4, 1], "priority levels, FIFO within each");
    }

    #[test]
    fn full_queue_rejects_with_depth() {
        let q = queue(2, 1000);
        q.push(key(1), req(1)).unwrap();
        q.push(key(2), req(1)).unwrap();
        assert_eq!(q.push(key(3), req(0)), Err(PushError::Full { depth: 2 }));
        assert_eq!(q.len(), 2, "rejected job was not admitted");
    }

    #[test]
    fn aging_prevents_starvation() {
        let q = queue(8, 20); // every 20 ms waited = one level better
        q.push(key(1), req(7)).unwrap(); // lowest priority, first in
        std::thread::sleep(Duration::from_millis(150));
        q.push(key(2), req(0)).unwrap(); // fresh high-priority
        // The old job has aged 7 levels down to 0 and wins the FIFO
        // tie-break at that level.
        assert_eq!(q.pop_blocking().unwrap().key.seed, 1);
        assert_eq!(q.pop_blocking().unwrap().key.seed, 2);
    }

    #[test]
    fn close_drains_then_returns_none() {
        let q = queue(8, 1000);
        q.push(key(1), req(1)).unwrap();
        q.close();
        assert_eq!(q.push(key(2), req(1)), Err(PushError::Closed));
        assert_eq!(q.pop_blocking().unwrap().key.seed, 1, "admitted jobs drain");
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = std::sync::Arc::new(queue(8, 1000));
        let q2 = std::sync::Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop_blocking().is_none());
        std::thread::sleep(Duration::from_millis(30));
        q.close();
        assert!(h.join().unwrap(), "popper woke and saw the close");
    }
}
