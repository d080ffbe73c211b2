//! The in-process communicator.
//!
//! [`world_run`] spawns `n` rank threads, wires a full mesh of
//! channels between them, and hands each a [`RankCtx`] with the MPI
//! primitives the OP-PIC backend uses: `send`/`recv`, `barrier`,
//! `allreduce` and `alltoallv`. Every message is one `Vec<f64>` frame
//! (the migration codec's records, the reductions' vectors and the
//! resilience layer's envelopes are all f64 words), counted at 8 bytes
//! a word in [`RankCtx::sent_bytes`].

use crate::fault::{FaultAction, FaultSchedule};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Per-rank stable-store slot: the newest two `(version, bytes)`
/// checkpoint shards, surviving the owner's death.
type StoreSlot = Mutex<Vec<(u64, Vec<u8>)>>;

/// Payload bytes of one frame: 8 per f64 word.
fn frame_bytes(frame: &[f64]) -> u64 {
    std::mem::size_of_val(frame) as u64
}

/// A message held back by a Reorder/Delay fault, waiting for its
/// release condition.
struct HeldMsg {
    /// `true`: release right after the next send to the same dst
    /// (Reorder). `false`: release only on [`RankCtx::flush_held`]
    /// (Delay).
    on_next_send: bool,
    msg: Vec<f64>,
}

/// Per-rank context handed to the rank body by [`world_run`].
pub struct RankCtx {
    pub rank: usize,
    pub n_ranks: usize,
    to: Vec<Sender<Vec<f64>>>,
    from: Vec<Receiver<Vec<f64>>>,
    barrier: Arc<Barrier>,
    /// Bytes sent by this rank (comm-volume accounting).
    sent_bytes: u64,
    /// Installed fault schedule (None = fault-free world).
    fault: Option<Arc<FaultSchedule>>,
    /// Per-destination sequence counters for fault draws — a
    /// retransmission gets a fresh number and thus a fresh draw.
    fault_seq: Vec<u64>,
    /// Messages held back by Reorder/Delay faults, per destination.
    held: Vec<Vec<HeldMsg>>,
    /// Lease board — one slot per rank, bumped by its owner each step
    /// (and while spinning in membership agreement). A crashed rank's
    /// slot freezes forever, which is what the failure detector
    /// observes. Shared memory models the out-of-band health plane
    /// (MPI_Comm_revoke / a process manager) that real MPI provides.
    leases: Arc<Vec<AtomicU64>>,
    /// Membership-agreement proposal board — one slot per rank,
    /// written by its owner with an encoded (target epoch, dead mask)
    /// proposal during shrinking recovery.
    proposals: Arc<Vec<AtomicU64>>,
    /// Stable store — per-rank checkpoint shards that survive rank
    /// death (models a parallel filesystem). Each slot keeps the last
    /// two `(version, bytes)` shards so a kill *during* checkpoint
    /// still leaves a coordinated older version recoverable.
    store: Arc<Vec<StoreSlot>>,
}

impl RankCtx {
    /// Point-to-point send to `dst` (buffered, non-blocking).
    pub fn send(&mut self, dst: usize, msg: Vec<f64>) {
        self.sent_bytes += frame_bytes(&msg);
        self.to[dst]
            .send(msg)
            .expect("receiver hung up — rank body panicked?");
    }

    /// Blocking receive of the next message from `src`.
    pub fn recv(&self, src: usize) -> Vec<f64> {
        self.from[src]
            .recv()
            .expect("sender hung up — rank body panicked?")
    }

    /// Receive the next message from *any* source, polling every
    /// channel until `deadline`; `None` if nothing arrives in time.
    pub fn recv_any_deadline(&self, deadline: Instant) -> Option<(usize, Vec<f64>)> {
        loop {
            for src in 0..self.n_ranks {
                if let Ok(m) = self.from[src].try_recv() {
                    return Some((src, m));
                }
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// The step at which the installed schedule fail-stops this rank
    /// ([`crate::fault::FaultKind::Crash`]), if any. Rank bodies
    /// consult this and return early — the "stall-forever" kill.
    pub fn crash_step(&self) -> Option<usize> {
        self.fault.as_ref().and_then(|f| f.crash_at(self.rank))
    }

    /// Send on the **fault-injectable data plane**: the installed
    /// [`FaultSchedule`] (if any) may drop, duplicate, reorder,
    /// delay, bit-flip, or stall this message. The resilience layer
    /// routes its sequence-numbered envelopes through here; the plain
    /// [`send`](RankCtx::send) path stays reliable (control plane).
    pub fn send_faulty(&mut self, dst: usize, mut msg: Vec<f64>) {
        let seq = self.fault_seq[dst];
        self.fault_seq[dst] += 1;
        let action = match &self.fault {
            Some(f) => f.draw(self.rank, dst, seq, msg.len()),
            None => FaultAction::None,
        };
        // Messages reordered by earlier sends release *after* the
        // current message; collect them before anything new is held.
        let release: Vec<Vec<f64>> = {
            let held = &mut self.held[dst];
            let mut rel = Vec::new();
            let mut keep = Vec::new();
            for h in held.drain(..) {
                if h.on_next_send {
                    rel.push(h.msg);
                } else {
                    keep.push(h);
                }
            }
            *held = keep;
            rel
        };
        match action {
            FaultAction::None => self.send(dst, msg),
            FaultAction::Drop => {
                // Vanishes on the wire; sender-side accounting still
                // saw the attempt.
                self.sent_bytes += frame_bytes(&msg);
            }
            FaultAction::Duplicate => {
                self.send(dst, msg.clone());
                self.send(dst, msg);
            }
            FaultAction::Reorder => self.held[dst].push(HeldMsg {
                on_next_send: true,
                msg,
            }),
            FaultAction::Delay => self.held[dst].push(HeldMsg {
                on_next_send: false,
                msg,
            }),
            FaultAction::BitFlip { word, bit } => {
                if let Some(x) = msg.get_mut(word) {
                    *x = f64::from_bits(x.to_bits() ^ (1u64 << bit));
                }
                self.send(dst, msg);
            }
            FaultAction::Stall(d) => {
                std::thread::sleep(d);
                self.send(dst, msg);
            }
        }
        for m in release {
            self.send(dst, m);
        }
    }

    /// Force every held (delayed/reordered) message onto the wire.
    /// The retry layer calls this when a timeout fires, so a Delay
    /// fault becomes late delivery rather than permanent loss.
    pub fn flush_held(&mut self) {
        for dst in 0..self.n_ranks {
            let msgs: Vec<Vec<f64>> = self.held[dst].drain(..).map(|h| h.msg).collect();
            for m in msgs {
                self.send(dst, m);
            }
        }
    }

    /// Synchronise all ranks.
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// Total payload bytes this rank has sent.
    pub fn sent_bytes(&self) -> u64 {
        self.sent_bytes
    }

    /// Sum-allreduce a scalar.
    pub fn allreduce_sum(&mut self, x: f64) -> f64 {
        self.allreduce_vec_sum(&[x])[0]
    }

    /// Element-wise sum-allreduce of a vector (gather to rank 0,
    /// reduce, broadcast — the textbook implementation).
    pub fn allreduce_vec_sum(&mut self, x: &[f64]) -> Vec<f64> {
        if self.n_ranks == 1 {
            return x.to_vec();
        }
        if self.rank == 0 {
            let mut acc = x.to_vec();
            for src in 1..self.n_ranks {
                let m = self.recv(src);
                assert_eq!(m.len(), acc.len(), "allreduce length mismatch");
                for (a, b) in acc.iter_mut().zip(&m) {
                    *a += b;
                }
            }
            for dst in 1..self.n_ranks {
                self.send(dst, acc.clone());
            }
            acc
        } else {
            self.send(0, x.to_vec());
            self.recv(0)
        }
    }

    /// Max-allreduce a scalar.
    pub fn allreduce_max(&mut self, x: f64) -> f64 {
        if self.n_ranks == 1 {
            return x;
        }
        if self.rank == 0 {
            let mut acc = x;
            for src in 1..self.n_ranks {
                acc = acc.max(self.recv(src)[0]);
            }
            for dst in 1..self.n_ranks {
                self.send(dst, vec![acc]);
            }
            acc
        } else {
            self.send(0, vec![x]);
            self.recv(0)[0]
        }
    }

    /// All-to-all variable exchange: `sends[dst]` goes to rank `dst`
    /// (the self-message too), and the result is `recvs[src]` in rank
    /// order — the blocking `MPI_Alltoallv` analogue. Collective:
    /// every rank must call it.
    pub fn alltoallv(&mut self, sends: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
        assert_eq!(
            sends.len(),
            self.n_ranks,
            "alltoallv needs one buffer per rank"
        );
        // Self-message short-circuits through the channel too (keeps
        // ordering semantics uniform).
        for (dst, m) in sends.into_iter().enumerate() {
            self.send(dst, m);
        }
        (0..self.n_ranks).map(|src| self.recv(src)).collect()
    }

    /// Renew this rank's lease (health heartbeat). Monotonic: each
    /// call bumps the slot, so "the slot changed" means "the rank was
    /// alive since I last looked".
    pub fn lease_renew(&self) {
        self.leases[self.rank].fetch_add(1, Ordering::SeqCst);
    }

    /// Read `rank`'s current lease value.
    pub fn lease_read(&self, rank: usize) -> u64 {
        self.leases[rank].load(Ordering::SeqCst)
    }

    /// Publish this rank's membership-agreement proposal.
    pub fn proposal_publish(&self, encoded: u64) {
        self.proposals[self.rank].store(encoded, Ordering::SeqCst);
    }

    /// Read `rank`'s published proposal (0 = none yet).
    pub fn proposal_read(&self, rank: usize) -> u64 {
        self.proposals[rank].load(Ordering::SeqCst)
    }

    /// Write a checkpoint shard for this rank at `version` into the
    /// stable store. Keeps the newest two versions per slot (write
    /// once per version; a rewrite replaces).
    pub fn store_put(&self, version: u64, bytes: Vec<u8>) {
        let mut slot = self.store[self.rank].lock();
        slot.retain(|(v, _)| *v != version);
        slot.push((version, bytes));
        slot.sort_by_key(|(v, _)| *v);
        let excess = slot.len().saturating_sub(2);
        slot.drain(..excess);
    }

    /// Fetch the shard `rank` wrote at `version`, if present. Any rank
    /// may read any slot — survivors read the dead rank's shard.
    pub fn store_get(&self, rank: usize, version: u64) -> Option<Vec<u8>> {
        self.store[rank]
            .lock()
            .iter()
            .find(|(v, _)| *v == version)
            .map(|(_, b)| b.clone())
    }

    /// Versions present in `rank`'s store slot (ascending).
    pub fn store_versions(&self, rank: usize) -> Vec<u64> {
        self.store[rank].lock().iter().map(|(v, _)| *v).collect()
    }
}

/// Spawn `n_ranks` rank threads running `body`; returns each rank's
/// result, in rank order. Panics in any rank propagate.
pub fn world_run<R, F>(n_ranks: usize, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    world_run_faulty(n_ranks, None, body)
}

/// [`world_run`] with an optional fault schedule armed on every
/// rank's data plane ([`RankCtx::send_faulty`]). `None` is exactly
/// `world_run`.
pub fn world_run_faulty<R, F>(n_ranks: usize, fault: Option<Arc<FaultSchedule>>, body: F) -> Vec<R>
where
    R: Send,
    F: Fn(&mut RankCtx) -> R + Sync,
{
    assert!(n_ranks > 0, "world needs at least one rank");
    // channels[src][dst]
    let mut senders: Vec<Vec<Option<Sender<Vec<f64>>>>> = Vec::with_capacity(n_ranks);
    let mut receivers: Vec<Vec<Option<Receiver<Vec<f64>>>>> = (0..n_ranks)
        .map(|_| (0..n_ranks).map(|_| None).collect())
        .collect();
    for src in 0..n_ranks {
        let mut row = Vec::with_capacity(n_ranks);
        for recv_row in receivers.iter_mut() {
            let (tx, rx) = channel();
            row.push(Some(tx));
            recv_row[src] = Some(rx);
        }
        senders.push(row);
    }
    let barrier = Arc::new(Barrier::new(n_ranks));
    let leases: Arc<Vec<AtomicU64>> = Arc::new((0..n_ranks).map(|_| AtomicU64::new(0)).collect());
    let proposals: Arc<Vec<AtomicU64>> =
        Arc::new((0..n_ranks).map(|_| AtomicU64::new(0)).collect());
    let store: Arc<Vec<StoreSlot>> =
        Arc::new((0..n_ranks).map(|_| Mutex::new(Vec::new())).collect());

    let mut ctxs: Vec<RankCtx> = senders
        .into_iter()
        .zip(receivers)
        .enumerate()
        .map(|(rank, (to_row, from_row))| RankCtx {
            rank,
            n_ranks,
            to: to_row
                .into_iter()
                .map(|s| s.expect("sender wired"))
                .collect(),
            from: from_row
                .into_iter()
                .map(|r| r.expect("receiver wired"))
                .collect(),
            barrier: barrier.clone(),
            sent_bytes: 0,
            fault: fault.clone(),
            fault_seq: vec![0; n_ranks],
            held: (0..n_ranks).map(|_| Vec::new()).collect(),
            leases: leases.clone(),
            proposals: proposals.clone(),
            store: store.clone(),
        })
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = ctxs
            .iter_mut()
            .map(|ctx| {
                let body = &body;
                s.spawn(move || body(ctx))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_to_point_ring() {
        let results = world_run(4, |ctx| {
            let next = (ctx.rank + 1) % ctx.n_ranks;
            let prev = (ctx.rank + ctx.n_ranks - 1) % ctx.n_ranks;
            ctx.send(next, vec![ctx.rank as f64]);
            ctx.recv(prev)[0]
        });
        assert_eq!(results, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn allreduce_sum_and_max() {
        let sums = world_run(5, |ctx| ctx.allreduce_sum(ctx.rank as f64));
        assert!(sums.iter().all(|&s| s == 10.0));
        let maxs = world_run(5, |ctx| ctx.allreduce_max((ctx.rank as f64) * 1.5));
        assert!(maxs.iter().all(|&m| m == 6.0));
    }

    #[test]
    fn allreduce_vec() {
        let out = world_run(3, |ctx| ctx.allreduce_vec_sum(&[ctx.rank as f64, 1.0]));
        for v in out {
            assert_eq!(v, vec![3.0, 3.0]);
        }
    }

    #[test]
    fn single_rank_collectives_are_identity() {
        let out = world_run(1, |ctx| {
            assert_eq!(ctx.allreduce_sum(4.0), 4.0);
            assert_eq!(ctx.allreduce_max(-2.0), -2.0);
            ctx.allreduce_vec_sum(&[7.0])
        });
        assert_eq!(out[0], vec![7.0]);
    }

    #[test]
    fn alltoallv_exchanges_everything() {
        let out = world_run(3, |ctx| {
            let sends: Vec<Vec<f64>> = (0..3)
                .map(|dst| vec![(ctx.rank * 10 + dst) as f64])
                .collect();
            let recvs = ctx.alltoallv(sends);
            recvs.iter().map(|m| m[0]).collect::<Vec<_>>()
        });
        // Rank r receives src*10 + r from each src.
        assert_eq!(out[0], vec![0.0, 10.0, 20.0]);
        assert_eq!(out[1], vec![1.0, 11.0, 21.0]);
        assert_eq!(out[2], vec![2.0, 12.0, 22.0]);
    }

    #[test]
    fn sent_bytes_accounting() {
        let out = world_run(2, |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, vec![0.0; 10]);
                ctx.send(1, vec![0.0; 3]);
            } else {
                ctx.recv(0);
                ctx.recv(0);
            }
            ctx.sent_bytes()
        });
        assert_eq!(out[0], 80 + 24);
        assert_eq!(out[1], 0);
    }

    #[test]
    fn recv_any_deadline_picks_up_any_source() {
        let out = world_run(3, |ctx| {
            if ctx.rank == 0 {
                let got = ctx
                    .recv_any_deadline(Instant::now() + Duration::from_secs(2))
                    .expect("message in time");
                ctx.recv_any_deadline(Instant::now() + Duration::from_secs(2))
                    .expect("second message");
                got.0 == 1 || got.0 == 2
            } else {
                ctx.send(0, vec![ctx.rank as f64]);
                true
            }
        });
        assert!(out[0]);
    }

    #[test]
    fn faulty_send_drops_deterministically() {
        use crate::fault::{FaultKind, FaultSchedule};
        let sched = Arc::new(FaultSchedule::single(42, FaultKind::Drop, 1.0));
        let delivered = world_run_faulty(2, Some(sched.clone()), |ctx| {
            if ctx.rank == 0 {
                ctx.send_faulty(1, vec![1.0]);
                0
            } else {
                // Dropped: nothing ever arrives.
                let deadline = Instant::now() + Duration::from_millis(20);
                usize::from(ctx.recv_any_deadline(deadline).is_some())
            }
        });
        assert_eq!(delivered[1], 0);
        assert_eq!(sched.injected(), 1);
    }

    #[test]
    fn faulty_send_duplicates_and_bitflips() {
        use crate::fault::{FaultKind, FaultSchedule};
        let dup = Arc::new(FaultSchedule::single(1, FaultKind::Duplicate, 1.0));
        let got = world_run_faulty(2, Some(dup), |ctx| {
            if ctx.rank == 0 {
                ctx.send_faulty(1, vec![2.5]);
                0
            } else {
                let a = ctx.recv_any_deadline(Instant::now() + Duration::from_millis(200));
                let b = ctx.recv_any_deadline(Instant::now() + Duration::from_millis(200));
                usize::from(a.is_some()) + usize::from(b.is_some())
            }
        });
        assert_eq!(got[1], 2, "duplicate fault must deliver twice");

        let flip = Arc::new(FaultSchedule::single(2, FaultKind::BitFlip, 1.0));
        let vals = world_run_faulty(2, Some(flip), |ctx| {
            if ctx.rank == 0 {
                ctx.send_faulty(1, vec![2.5]);
                0.0
            } else {
                ctx.recv(0)[0]
            }
        });
        assert!(vals[1].is_finite(), "mantissa flip must stay finite");
        assert_ne!(vals[1], 2.5, "payload must actually be corrupted");
    }

    #[test]
    fn delayed_message_arrives_after_flush() {
        use crate::fault::{FaultKind, FaultSchedule};
        let sched = Arc::new(FaultSchedule::single(5, FaultKind::Delay, 1.0).with_budget(1));
        let got = world_run_faulty(2, Some(sched), |ctx| {
            if ctx.rank == 0 {
                ctx.send_faulty(1, vec![7.0]);
                // Nothing on the wire yet; a timeout-driven flush
                // releases it.
                ctx.flush_held();
                0.0
            } else {
                ctx.recv(0)[0]
            }
        });
        assert_eq!(got[1], 7.0);
    }

    #[test]
    fn reordered_message_follows_the_next_send() {
        use crate::fault::{FaultKind, FaultSchedule};
        let sched = Arc::new(FaultSchedule::single(6, FaultKind::Reorder, 1.0).with_budget(1));
        let got = world_run_faulty(2, Some(sched), |ctx| {
            if ctx.rank == 0 {
                ctx.send_faulty(1, vec![1.0]);
                ctx.send_faulty(1, vec![2.0]);
                vec![]
            } else {
                vec![ctx.recv(0)[0], ctx.recv(0)[0]]
            }
        });
        assert_eq!(got[1], vec![2.0, 1.0], "first message overtaken by second");
    }

    #[test]
    fn lease_board_is_shared_and_monotonic() {
        let out = world_run(3, |ctx| {
            for _ in 0..=ctx.rank {
                ctx.lease_renew();
            }
            ctx.barrier();
            (0..ctx.n_ranks)
                .map(|r| ctx.lease_read(r))
                .collect::<Vec<_>>()
        });
        for v in out {
            assert_eq!(v, vec![1, 2, 3]);
        }
    }

    #[test]
    fn stable_store_keeps_last_two_versions_and_survives_early_return() {
        let out = world_run(2, |ctx| {
            if ctx.rank == 1 {
                ctx.store_put(4, vec![4u8]);
                ctx.store_put(8, vec![8u8]);
                ctx.store_put(12, vec![12u8]);
                return None; // "crash" — slot must stay readable
            }
            // No barrier: rank 1 is gone. Poll until its shards land.
            let deadline = Instant::now() + Duration::from_secs(5);
            while ctx.store_versions(1).len() < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_micros(200));
            }
            Some((
                ctx.store_versions(1),
                ctx.store_get(1, 8),
                ctx.store_get(1, 4),
            ))
        });
        let (versions, v8, v4) = out[0].clone().unwrap();
        assert_eq!(versions, vec![8, 12], "only the newest two retained");
        assert_eq!(v8, Some(vec![8u8]));
        assert_eq!(v4, None, "evicted version gone");
    }

    #[test]
    fn proposal_board_roundtrip() {
        let out = world_run(2, |ctx| {
            ctx.proposal_publish(((ctx.rank as u64) << 32) | 0xAB);
            ctx.barrier();
            (ctx.proposal_read(0), ctx.proposal_read(1))
        });
        assert_eq!(out[0], (0xAB, (1 << 32) | 0xAB));
    }

    #[test]
    fn plain_send_is_never_faulted() {
        use crate::fault::{FaultKind, FaultSchedule};
        let sched = Arc::new(FaultSchedule::single(3, FaultKind::Drop, 1.0));
        let got = world_run_faulty(2, Some(sched), |ctx| {
            if ctx.rank == 0 {
                ctx.send(1, vec![4.0]);
                assert!(ctx.fault.is_some());
                0.0
            } else {
                ctx.recv(0)[0]
            }
        });
        assert_eq!(got[1], 4.0);
    }
}
