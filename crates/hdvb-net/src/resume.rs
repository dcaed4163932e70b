//! Server-side session journaling and resume.
//!
//! A session opened with the resume flag survives its connection. The
//! server journals every output message (packets, frames, DONE) as
//! pre-encoded wire bytes in a bounded, pool-backed [`OutputJournal`];
//! the client acknowledges receipt cumulatively (ACK_OUT) and acked
//! entries are recycled to the global [`BufferPool`]. When the
//! connection dies — EOF, reset, timeout, or a corrupted message — the
//! session *parks* instead of cancelling: the codec keeps running, new
//! outputs keep accumulating in the journal, and a client that
//! reconnects with `RESUME(session_id, outputs_received)` gets the
//! unacked tail replayed before the live stream continues. Output seen
//! by the client is therefore byte-identical to an uninterrupted run:
//! every journal entry is delivered exactly once, in order, regardless
//! of how many times the wire failed in between.
//!
//! Bounds: the journal holds at most `cap` unacked entries. If a
//! client falls further behind than that (or never acks), the oldest
//! entries are recycled and the session becomes non-resumable — a
//! later RESUME is refused rather than silently skipping output. A
//! parked session that nobody resumes within the server's resume
//! window is reaped by the accept loop: cancelled, drained, recycled.

use crate::server::WriteHalf;
use crate::wire::{self, Msg};
use hdvb_core::Priority;
use hdvb_frame::BufferPool;
use hdvb_serve::SessionHandle;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Bounded FIFO of encoded output messages awaiting acknowledgement.
pub(crate) struct OutputJournal {
    entries: VecDeque<Vec<u8>>,
    /// Journal sequence of `entries.front()` — equivalently, how many
    /// entries have been dropped (acked or overflowed) so far.
    base: u64,
    /// Total entries ever appended; the next entry's sequence.
    next: u64,
    cap: usize,
    /// An unacked entry was evicted; the session can no longer honour
    /// an arbitrary RESUME.
    overflowed: bool,
}

impl OutputJournal {
    fn new(cap: usize) -> OutputJournal {
        OutputJournal {
            entries: VecDeque::new(),
            base: 0,
            next: 0,
            cap: cap.max(1),
            overflowed: false,
        }
    }

    fn append(&mut self, bytes: Vec<u8>) {
        self.entries.push_back(bytes);
        self.next += 1;
        while self.entries.len() > self.cap {
            if let Some(old) = self.entries.pop_front() {
                BufferPool::global().put(old);
            }
            self.base += 1;
            self.overflowed = true;
        }
    }

    /// Acknowledges entries below `n`, recycling their buffers.
    fn ack(&mut self, n: u64) {
        let n = n.min(self.next);
        while self.base < n {
            if let Some(old) = self.entries.pop_front() {
                BufferPool::global().put(old);
            }
            self.base += 1;
        }
    }

    /// True when every appended entry has been acked.
    fn fully_acked(&self) -> bool {
        self.entries.is_empty()
    }

    /// The unacked tail starting at journal sequence `from`, or `None`
    /// when `from` is outside the journal (overflowed past it, or
    /// claims entries never appended).
    fn replay_from(&self, from: u64) -> Option<impl Iterator<Item = &Vec<u8>>> {
        if from < self.base || from > self.next {
            return None;
        }
        Some(self.entries.iter().skip((from - self.base) as usize))
    }

    fn recycle_all(&mut self) {
        for old in self.entries.drain(..) {
            BufferPool::global().put(old);
        }
        self.base = self.next;
    }
}

/// Everything about a resumable session that the attached connection
/// (and the sink, and the reaper) mutate under one lock.
pub(crate) struct EntryState {
    pub(crate) journal: OutputJournal,
    /// The currently attached connection's write half, if any.
    pub(crate) write: Option<Arc<WriteHalf>>,
    /// Bumped on every attach; a connection thread only parks the
    /// session if its generation is still current, so a takeover by a
    /// newer connection is never clobbered by the old thread's exit.
    pub(crate) generation: u64,
    /// Inputs consumed so far (drives client replay-buffer trimming).
    pub(crate) inputs_received: u64,
    /// FLUSH has been accepted.
    pub(crate) flushed: bool,
    /// DONE has been appended to the journal.
    pub(crate) done_appended: bool,
    /// The session result has been folded into the fleet stats.
    pub(crate) waited: bool,
    /// When the session parked (no connection attached).
    parked_at: Option<Instant>,
}

/// Why an attach (RESUME) was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttachError {
    /// The previous connection still looks alive; the client should
    /// back off and retry once the server notices the old socket died.
    Live,
    /// The resume point fell out of the journal (overflow) or claims
    /// outputs that were never sent — unrecoverable.
    OutOfRange,
}

/// One resumable session in the registry.
pub(crate) struct SessionEntry {
    pub(crate) id: u32,
    pub(crate) priority: Priority,
    /// Set immediately after `Server::open_with` returns. The sink
    /// closure needs the entry before the handle exists, hence the
    /// late initialisation; the sink only runs after the first submit,
    /// which is after `set_handle`.
    handle: OnceLock<SessionHandle>,
    pub(crate) state: Mutex<EntryState>,
}

fn lock(entry: &SessionEntry) -> std::sync::MutexGuard<'_, EntryState> {
    entry.state.lock().unwrap_or_else(|e| e.into_inner())
}

impl SessionEntry {
    pub(crate) fn new(
        id: u32,
        priority: Priority,
        journal_cap: usize,
        write: Arc<WriteHalf>,
    ) -> SessionEntry {
        SessionEntry {
            id,
            priority,
            handle: OnceLock::new(),
            state: Mutex::new(EntryState {
                journal: OutputJournal::new(journal_cap),
                write: Some(write),
                generation: 0,
                inputs_received: 0,
                flushed: false,
                done_appended: false,
                waited: false,
                parked_at: None,
            }),
        }
    }

    /// Journals `msg` and sends it to the attached connection (if the
    /// socket still works). The wire seq of a journaled message is its
    /// journal sequence, so a resumed client can sanity-check ordering.
    /// Consumes the message and recycles its buffers.
    pub(crate) fn emit(&self, msg: Msg) {
        let mut st = lock(self);
        let bytes = wire::encode_pooled(&msg, st.journal.next as u32);
        if let Some(write) = st.write.clone() {
            if !write.send_raw(&bytes) {
                // The socket died mid-stream; keep journaling. The
                // connection thread will notice `broken` and park.
                st.write = None;
            }
        }
        if matches!(msg, Msg::Done(_)) {
            st.done_appended = true;
        }
        st.journal.append(bytes);
        drop(st);
        wire::recycle_msg(msg);
    }

    /// Installs the serve-layer handle (exactly once, right after
    /// `open_with`).
    pub(crate) fn set_handle(&self, handle: SessionHandle) {
        if self.handle.set(handle).is_err() {
            unreachable!("session handle set twice");
        }
    }

    /// The serve-layer handle. Panics if called before `set_handle`,
    /// which cannot happen outside `open_session`.
    pub(crate) fn handle(&self) -> &SessionHandle {
        self.handle.get().expect("handle installed at open")
    }

    /// Applies a cumulative output ack.
    pub(crate) fn ack_outputs(&self, n: u64) {
        lock(self).journal.ack(n);
    }

    /// Marks FLUSH as accepted (idempotent — duplicate FLUSH after a
    /// resume is harmless).
    pub(crate) fn set_flushed(&self) {
        lock(self).flushed = true;
    }

    /// FLUSH already accepted? A resumed connection skips straight to
    /// the drain phase when true.
    pub(crate) fn is_flushed(&self) -> bool {
        lock(self).flushed
    }

    /// DONE already journaled?
    pub(crate) fn done_appended(&self) -> bool {
        lock(self).done_appended
    }

    /// Claims the right to fold the session result into the fleet
    /// stats. Exactly one caller (connection thread or reaper) gets
    /// `true`.
    pub(crate) fn claim_wait(&self) -> bool {
        let mut st = lock(self);
        if st.waited {
            false
        } else {
            st.waited = true;
            true
        }
    }

    /// Records one consumed input and returns the new total.
    pub(crate) fn input_received(&self) -> u64 {
        let mut st = lock(self);
        st.inputs_received += 1;
        st.inputs_received
    }

    /// Detaches the connection and starts the park clock — but only if
    /// `generation` is still the attached one.
    pub(crate) fn park(&self, generation: u64) -> bool {
        let mut st = lock(self);
        if st.generation != generation {
            return false;
        }
        st.write = None;
        st.parked_at = Some(Instant::now());
        true
    }

    /// Attaches a new connection: validates the resume point, sends
    /// RESUME_OK (so the client's handshake completes before any
    /// replayed output arrives), replays the unacked tail after
    /// `outputs_received`, and returns the generation token plus the
    /// number of replayed messages.
    pub(crate) fn attach(
        &self,
        write: Arc<WriteHalf>,
        outputs_received: u64,
    ) -> Result<(u64, u64), AttachError> {
        let mut st = lock(self);
        if let Some(old) = &st.write {
            if !old.is_broken() {
                return Err(AttachError::Live);
            }
        }
        // Holding the state lock across the replay writes is what
        // serialises replay against the sink: a pump thread emitting a
        // fresh output blocks on this lock until the tail is out, so
        // the client sees journal order exactly.
        let mut replayed = 0u64;
        {
            let tail = st
                .journal
                .replay_from(outputs_received)
                .ok_or(AttachError::OutOfRange)?;
            write.send(&Msg::ResumeOk {
                inputs_received: st.inputs_received,
            });
            for bytes in tail {
                if !write.send_raw(bytes) {
                    break;
                }
                replayed += 1;
            }
        }
        st.generation += 1;
        st.write = Some(write);
        st.parked_at = None;
        Ok((st.generation, replayed))
    }

    /// The park timestamp, if parked.
    pub(crate) fn parked_since(&self) -> Option<Instant> {
        lock(self).parked_at
    }

    /// True once DONE is journaled and every entry is acked — the
    /// session has nothing left to deliver.
    pub(crate) fn delivered(&self) -> bool {
        let st = lock(self);
        st.done_appended && st.journal.fully_acked()
    }

    /// Recycles every journaled buffer (reaping / final teardown).
    pub(crate) fn recycle(&self) {
        lock(self).journal.recycle_all();
    }
}

/// The server's table of resumable sessions.
pub(crate) struct Registry {
    sessions: Mutex<HashMap<u32, Arc<SessionEntry>>>,
}

impl Registry {
    pub(crate) fn new() -> Registry {
        Registry {
            sessions: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn insert(&self, entry: Arc<SessionEntry>) {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(entry.id, entry);
    }

    pub(crate) fn get(&self, id: u32) -> Option<Arc<SessionEntry>> {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&id)
            .cloned()
    }

    pub(crate) fn remove(&self, id: u32) -> Option<Arc<SessionEntry>> {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&id)
    }

    /// Removes and returns every session parked longer than `window`.
    pub(crate) fn expire(&self, window: Duration) -> Vec<Arc<SessionEntry>> {
        let mut sessions = self.sessions.lock().unwrap_or_else(|e| e.into_inner());
        let now = Instant::now();
        let expired: Vec<u32> = sessions
            .values()
            .filter(|e| {
                e.parked_since()
                    .is_some_and(|t| now.duration_since(t) >= window)
            })
            .map(|e| e.id)
            .collect();
        expired
            .into_iter()
            .filter_map(|id| sessions.remove(&id))
            .collect()
    }

    /// Sessions currently in the registry.
    pub(crate) fn len(&self) -> usize {
        self.sessions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_acks_recycle_and_bound_memory() {
        let mut j = OutputJournal::new(4);
        for i in 0..4u8 {
            j.append(vec![i]);
        }
        assert_eq!(j.next, 4);
        assert!(!j.overflowed);
        // Ack 2: base advances, replay from 2 yields entries 2..4.
        j.ack(2);
        let tail: Vec<u8> = j.replay_from(2).expect("in range").map(|b| b[0]).collect();
        assert_eq!(tail, vec![2, 3]);
        // Replay from before the acked base is refused.
        assert!(j.replay_from(1).is_none());
        // Overflow: two more pushes evict unacked entries.
        j.append(vec![4]);
        j.append(vec![5]);
        j.append(vec![6]);
        assert!(j.overflowed);
        assert!(j.replay_from(2).is_none(), "evicted tail is gone");
        assert!(j.replay_from(3).is_some());
        j.ack(7);
        assert!(j.fully_acked());
    }

    #[test]
    fn ack_beyond_appended_is_clamped() {
        let mut j = OutputJournal::new(8);
        j.append(vec![0]);
        j.ack(100);
        assert!(j.fully_acked());
        assert_eq!(j.base, 1, "base never outruns appended entries");
        // Appending after a wild ack still sequences correctly.
        j.append(vec![1]);
        let tail: Vec<u8> = j.replay_from(1).expect("in range").map(|b| b[0]).collect();
        assert_eq!(tail, vec![1]);
    }
}
