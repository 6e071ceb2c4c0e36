//! The per-session result queue: backpressure, retention, and replay.
//!
//! Lines are pushed by the session's reader and by pool workers, and
//! delivered by the reader or the session's writer thread. The two sides
//! have opposite blocking rules:
//!
//! * [`Outbox::push`] **never blocks** — a pool worker finishing a job must
//!   not stall on a slow client, or one unread session would wedge the whole
//!   pool. The queue is unbounded for pushes.
//! * Admission is bounded instead: the session's *reader* thread calls
//!   [`Outbox::wait_below`] before parsing another `submit`, so a client
//!   that stops reading its results stops being read — its socket fills and
//!   the backpressure propagates to the client without costing the daemon a
//!   thread or a byte of queue growth beyond the jobs already admitted.
//!
//! Every line carries a **sequence number**, assigned at push in arrival
//! order starting from 1. Sessions opened with `hello` run the outbox in
//! *retained* mode: a delivered line stays buffered (and billed against the
//! [`Outbox::wait_below`] limit) until the client trims it with `ack N`, so
//! a dropped connection can [`Outbox::resume_from`] its last acknowledged
//! sequence number and replay exactly the unacked suffix — byte-identical
//! to an undropped run. Anonymous sessions keep the pre-resume behaviour:
//! delivery is the ack, nothing is retained, and no `seq=` prefix is
//! rendered.
//!
//! Connections attach with [`Outbox::attach_writer`] and identify
//! themselves by the returned epoch; a `resume` bumps the epoch, which both
//! rewinds the delivery cursor and evicts the dropped connection (its next
//! [`Outbox::pop_at`] returns `None`, its next [`Outbox::wait_ready`]
//! `false`, and its reader takes nothing more), so two connections can
//! never split one session's stream.
//!
//! Within one connection there are two deliverers. The reader takes a
//! *turn* ([`Outbox::begin_turn`]) while it handles one request: pushes
//! made during the turn wake nobody, and [`Outbox::take_ready`] ends the
//! turn and hands the reader every deliverable line to write itself.
//! Outside a turn the writer thread parks in [`Outbox::wait_ready`] and
//! takes lines with the same [`Outbox::take_ready`]. Both take and write
//! under one connection mutex, so lines leave in sequence order whoever
//! writes them. Every wait counts its parked threads, and a push, pop or
//! ack signals a condition variable only when a thread is parked on it.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

#[derive(Debug)]
struct State {
    /// Buffered lines: in retained mode everything unacked (delivered or
    /// not); otherwise just the undelivered tail.
    lines: VecDeque<String>,
    /// Sequence number of `lines[0]`; the next push gets
    /// `front_seq + lines.len()`.
    front_seq: u64,
    /// Sequence number of the next line to deliver.
    cursor: u64,
    /// Whether delivered lines are retained until acked (resumable
    /// sessions).
    retain: bool,
    /// The writer attachment currently allowed to deliver lines.
    epoch: u64,
    /// Whether the current attachment's reader is delivering: pushes then
    /// leave the writer thread parked.
    turn: bool,
    closed: bool,
    /// Threads parked on `pushed` (writers and direct consumers).
    parked_writers: usize,
    /// Threads parked on `popped` (admission gates).
    parked_gates: usize,
}

impl Default for State {
    fn default() -> Self {
        Self {
            lines: VecDeque::new(),
            front_seq: 1,
            cursor: 1,
            retain: false,
            epoch: 0,
            turn: false,
            closed: false,
            parked_writers: 0,
            parked_gates: 0,
        }
    }
}

impl State {
    /// One past the highest sequence number assigned so far.
    fn next_seq(&self) -> u64 {
        self.front_seq + self.lines.len() as u64
    }

    /// Trims every line with `seq <= upto`, keeping the cursor in range.
    fn trim_through(&mut self, upto: u64) {
        while self.front_seq <= upto && self.lines.pop_front().is_some() {
            self.front_seq += 1;
        }
        self.cursor = self.cursor.max(self.front_seq);
    }

    /// Whether a line is waiting for delivery.
    fn deliverable(&self) -> bool {
        self.cursor < self.next_seq()
    }

    /// Delivers the next line, if any: `seq=`-prefixed and still retained
    /// in retained mode, moved out of the queue otherwise.
    fn deliver_next(&mut self) -> Option<String> {
        if !self.deliverable() {
            return None;
        }
        let seq = self.cursor;
        self.cursor += 1;
        if self.retain {
            let at = (seq - self.front_seq) as usize;
            return Some(format!("seq={seq} {}", self.lines[at]));
        }
        self.front_seq += 1;
        self.lines.pop_front()
    }

    /// Appends every deliverable line and its `\n` to `out`.
    fn deliver_all(&mut self, out: &mut String) {
        while let Some(line) = self.deliver_next() {
            out.push_str(&line);
            out.push('\n');
        }
    }

    /// A new attachment (or none): whoever held the turn lost it.
    fn bump_epoch(&mut self) {
        self.epoch += 1;
        self.turn = false;
    }
}

/// A multi-producer single-consumer line queue with non-blocking pushes, a
/// reader-side admission gate, and (for resumable sessions) acked retention
/// with replay.
#[derive(Debug, Default)]
pub struct Outbox {
    state: Mutex<State>,
    pushed: Condvar,
    popped: Condvar,
}

impl Outbox {
    /// An open, empty outbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Switches the outbox to retained mode: delivered lines stay buffered
    /// (and count toward [`Outbox::wait_below`]) until [`Outbox::ack`]
    /// trims them, and delivery prefixes each line with its `seq=N` token.
    /// Call before the first push — sequence numbers are assigned either
    /// way, but already-delivered lines are not recovered retroactively.
    pub fn enable_retention(&self) {
        self.lock().retain = true;
    }

    /// Queues a line for the writer. Never blocks; silently drops the line
    /// if the outbox is already closed (the session is gone). Wakes a
    /// parked writer unless the reader holds its turn.
    pub fn push(&self, line: String) {
        let mut state = self.lock();
        if state.closed {
            return;
        }
        state.lines.push_back(line);
        if state.parked_writers > 0 && !state.turn {
            self.pushed.notify_all();
        }
    }

    /// Registers the calling writer as the session's current (only) one and
    /// returns its epoch for [`Outbox::pop_at`], or for
    /// [`Outbox::wait_ready`], [`Outbox::take_ready`] and the reader's
    /// [`Outbox::begin_turn`]. Any previously attached writer is evicted:
    /// its next pop returns `None`.
    pub fn attach_writer(&self) -> u64 {
        let mut state = self.lock();
        state.bump_epoch();
        self.pushed.notify_all();
        state.epoch
    }

    /// Detaches `epoch` if it is still the current writer (a no-op when a
    /// `resume` already attached a newer one), waking it out of a blocked
    /// pop.
    pub fn detach(&self, epoch: u64) {
        let mut state = self.lock();
        if state.epoch == epoch {
            state.bump_epoch();
            self.pushed.notify_all();
        }
    }

    /// Takes the next line, blocking until one arrives or the outbox closes.
    /// Returns `None` only when the outbox is closed **and** delivered, so a
    /// writer loop flushes every queued line before exiting. Direct
    /// consumers (tests, embedders) use this; an attached writer uses
    /// [`Outbox::pop_at`] so a resumed session can evict it.
    pub fn pop(&self) -> Option<String> {
        self.pop_inner(None)
    }

    /// [`Outbox::pop`] for an attached writer: additionally returns `None`
    /// as soon as `epoch` is no longer the current attachment.
    pub fn pop_at(&self, epoch: u64) -> Option<String> {
        self.pop_inner(Some(epoch))
    }

    fn pop_inner(&self, epoch: Option<u64>) -> Option<String> {
        let mut state = self.lock();
        loop {
            if epoch.is_some_and(|epoch| epoch != state.epoch) {
                return None;
            }
            if let Some(line) = state.deliver_next() {
                self.release_gates(&state);
                return Some(line);
            }
            if state.closed {
                return None;
            }
            state = self.park_writer(state);
        }
    }

    /// Starts the reader's delivery turn for attachment `epoch`: until
    /// [`Outbox::take_ready`], pushes leave the writer thread parked. A no-op
    /// for an evicted attachment or a closed outbox. The reader must end
    /// its turn before it blocks on anything, or lines pushed meanwhile by
    /// pool workers would wait on it.
    pub fn begin_turn(&self, epoch: u64) {
        let mut state = self.lock();
        if state.epoch == epoch && !state.closed {
            state.turn = true;
        }
    }

    /// Blocks the writer thread of attachment `epoch` until there is
    /// something for it to take outside a reader's turn. Returns `false`
    /// when the writer should exit: `epoch` was evicted, or the outbox is
    /// closed and fully delivered.
    pub fn wait_ready(&self, epoch: u64) -> bool {
        let mut state = self.lock();
        loop {
            if state.epoch != epoch {
                return false;
            }
            if state.deliverable() && !state.turn {
                return true;
            }
            if state.closed {
                return state.deliverable();
            }
            state = self.park_writer(state);
        }
    }

    /// Appends every deliverable line (each with its `\n`) to `out` without
    /// blocking, and ends the reader's turn if one is held: the reader calls
    /// this to end its turn, the writer thread after [`Outbox::wait_ready`].
    /// Appends nothing once `epoch` is evicted. Call it holding the
    /// connection's write lock.
    pub fn take_ready(&self, epoch: u64, out: &mut String) {
        let mut state = self.lock();
        if state.epoch == epoch {
            state.turn = false;
            state.deliver_all(out);
            self.release_gates(&state);
        }
    }

    /// Trims every retained line with `seq <= upto` (the client has them)
    /// and releases [`Outbox::wait_below`] waiters accordingly.
    pub fn ack(&self, upto: u64) {
        let mut state = self.lock();
        state.trim_through(upto);
        self.release_gates(&state);
    }

    /// Rewinds delivery to `last_seq + 1` for a reconnected session and
    /// attaches the caller as the session's new writer (returning its epoch,
    /// and evicting any previous writer). `last_seq` doubles as an ack —
    /// everything at or below it is trimmed. Fails when `last_seq` predates
    /// the retained window (an earlier ack already trimmed it) or was never
    /// assigned.
    pub fn resume_from(&self, last_seq: u64) -> Result<u64, String> {
        let mut state = self.lock();
        if !state.retain {
            return Err("session does not retain results".to_string());
        }
        if last_seq + 1 < state.front_seq {
            return Err(format!(
                "seq {last_seq} already trimmed (acked through {})",
                state.front_seq - 1
            ));
        }
        if last_seq >= state.next_seq() {
            return Err(format!(
                "seq {last_seq} was never sent (next is {})",
                state.next_seq()
            ));
        }
        state.trim_through(last_seq);
        state.cursor = last_seq + 1;
        state.bump_epoch();
        self.pushed.notify_all();
        self.popped.notify_all();
        Ok(state.epoch)
    }

    /// Blocks the caller (the session reader, deciding whether to admit
    /// another `submit`) until fewer than `limit` lines are buffered or the
    /// outbox closes. In retained mode delivered-but-unacked lines still
    /// count, which is what bounds retention: a client that never acks
    /// stops being admitted.
    pub fn wait_below(&self, limit: usize) {
        let limit = limit.max(1);
        let mut state = self.lock();
        while !state.closed && state.lines.len() >= limit {
            state.parked_gates += 1;
            state = self
                .popped
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.parked_gates -= 1;
        }
    }

    /// Lines currently buffered — undelivered ones, plus (in retained mode)
    /// delivered-but-unacked ones (diagnostics and tests).
    pub fn len(&self) -> usize {
        self.lock().lines.len()
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Closes the outbox: pending lines still drain through [`Outbox::pop`],
    /// further pushes are dropped, any reader turn ends, and both waiting
    /// sides wake up.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.turn = false;
        self.pushed.notify_all();
        self.popped.notify_all();
    }

    /// Parks a writer or direct consumer on `pushed` until the next wake-up.
    fn park_writer<'a>(&self, mut state: MutexGuard<'a, State>) -> MutexGuard<'a, State> {
        state.parked_writers += 1;
        let mut state = self
            .pushed
            .wait(state)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        state.parked_writers -= 1;
        state
    }

    /// Wakes the admission gates, if any is parked, after lines left the
    /// buffer.
    fn release_gates(&self, state: &State) {
        if state.parked_gates > 0 {
            self.popped.notify_all();
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn lines_flow_in_order_and_drain_after_close() {
        let outbox = Outbox::new();
        outbox.push("a".into());
        outbox.push("b".into());
        outbox.close();
        outbox.push("dropped".into());
        assert_eq!(outbox.pop().as_deref(), Some("a"));
        assert_eq!(outbox.pop().as_deref(), Some("b"));
        assert_eq!(outbox.pop(), None, "closed and drained");
    }

    #[test]
    fn wait_below_blocks_until_the_consumer_catches_up() {
        let outbox = Arc::new(Outbox::new());
        outbox.push("1".into());
        outbox.push("2".into());
        let gate = Arc::clone(&outbox);
        let admitted = std::thread::spawn(move || {
            gate.wait_below(2);
            true
        });
        // The gate must still be blocked: two lines are queued.
        std::thread::sleep(Duration::from_millis(20));
        assert!(!admitted.is_finished(), "gate opened below the limit");
        assert_eq!(outbox.pop().as_deref(), Some("1"));
        assert!(admitted.join().unwrap());
    }

    #[test]
    fn close_releases_a_blocked_gate() {
        let outbox = Arc::new(Outbox::new());
        outbox.push("only".into());
        let gate = Arc::clone(&outbox);
        let waiter = std::thread::spawn(move || gate.wait_below(1));
        outbox.close();
        waiter.join().unwrap();
    }

    #[test]
    fn retained_lines_carry_their_seq_and_survive_delivery() {
        let outbox = Outbox::new();
        outbox.enable_retention();
        outbox.push("alpha".into());
        outbox.push("beta".into());
        assert_eq!(outbox.pop().as_deref(), Some("seq=1 alpha"));
        assert_eq!(outbox.pop().as_deref(), Some("seq=2 beta"));
        assert_eq!(outbox.len(), 2, "delivered lines are retained until acked");
        outbox.ack(1);
        assert_eq!(outbox.len(), 1);
        outbox.ack(2);
        assert!(outbox.is_empty());
    }

    #[test]
    fn ack_releases_a_retained_admission_gate() {
        let outbox = Arc::new(Outbox::new());
        outbox.enable_retention();
        outbox.push("1".into());
        outbox.push("2".into());
        // Delivery alone must NOT open the gate: the lines are unacked.
        assert!(outbox.pop().is_some());
        assert!(outbox.pop().is_some());
        let gate = Arc::clone(&outbox);
        let admitted = std::thread::spawn(move || gate.wait_below(2));
        std::thread::sleep(Duration::from_millis(20));
        assert!(!admitted.is_finished(), "unacked lines must hold the gate");
        outbox.ack(1);
        admitted.join().unwrap();
    }

    #[test]
    fn resume_replays_exactly_the_unacked_suffix() {
        let outbox = Outbox::new();
        outbox.enable_retention();
        for line in ["a", "b", "c", "d"] {
            outbox.push(line.into());
        }
        let first = outbox.attach_writer();
        assert_eq!(outbox.pop_at(first).as_deref(), Some("seq=1 a"));
        assert_eq!(outbox.pop_at(first).as_deref(), Some("seq=2 b"));
        assert_eq!(outbox.pop_at(first).as_deref(), Some("seq=3 c"));
        // The client acked 2, then the connection dropped: resume rewinds
        // delivery to seq 3, trims 1..=2, and evicts the old writer.
        let second = outbox.resume_from(2).expect("resume in window");
        assert_eq!(outbox.pop_at(first), None, "old writer is evicted");
        assert_eq!(outbox.pop_at(second).as_deref(), Some("seq=3 c"));
        assert_eq!(outbox.pop_at(second).as_deref(), Some("seq=4 d"));
        // Resuming from an already-trimmed seq or the future both fail.
        assert!(outbox.resume_from(0).is_err(), "seq 1..=2 were trimmed");
        assert!(outbox.resume_from(9).is_err(), "seq 9 was never sent");
        // Resuming from the newest seq replays nothing but succeeds.
        let third = outbox.resume_from(4).expect("resume at the tip");
        outbox.close();
        assert_eq!(outbox.pop_at(third), None);
    }

    #[test]
    fn detach_is_a_noop_once_a_newer_writer_attached() {
        let outbox = Arc::new(Outbox::new());
        outbox.enable_retention();
        let first = outbox.attach_writer();
        let parked = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || outbox.pop_at(first))
        };
        let second = outbox.resume_from(0).expect("resume from the start");
        assert_eq!(parked.join().unwrap(), None, "resume evicts the writer");
        // The dropped connection's epilogue runs late: it must not evict the
        // resumed writer.
        outbox.detach(first);
        outbox.push("still-delivered".into());
        assert_eq!(
            outbox.pop_at(second).as_deref(),
            Some("seq=1 still-delivered")
        );
    }

    #[test]
    fn a_reader_turn_keeps_the_writer_parked_and_hands_over_its_lines() {
        let outbox = Arc::new(Outbox::new());
        outbox.enable_retention();
        let epoch = outbox.attach_writer();
        outbox.begin_turn(epoch);
        outbox.push("accepted".into());
        let writer = {
            let outbox = Arc::clone(&outbox);
            std::thread::spawn(move || {
                let mut taken = String::new();
                while outbox.wait_ready(epoch) {
                    outbox.take_ready(epoch, &mut taken);
                }
                taken
            })
        };
        outbox.push("result".into());
        std::thread::sleep(Duration::from_millis(20));
        let mut batch = String::new();
        outbox.take_ready(epoch, &mut batch);
        assert_eq!(batch, "seq=1 accepted\nseq=2 result\n");
        // Outside the turn, the writer delivers; `close` lets it exit.
        outbox.push("late".into());
        outbox.close();
        assert_eq!(writer.join().unwrap(), "seq=3 late\n");
    }

    #[test]
    fn an_anonymous_outbox_rejects_resume() {
        let outbox = Outbox::new();
        outbox.push("x".into());
        assert!(outbox.resume_from(0).is_err());
    }
}
