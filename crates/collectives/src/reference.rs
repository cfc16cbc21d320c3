//! Reference ring collectives: the seed transport's exact algorithms,
//! kept as the oracle the pooled/pipelined implementations are proven
//! bit-identical against.
//!
//! These are deliberately naive — one fresh `Vec` per hop, no pooling,
//! no segmentation, a star fan-out broadcast — and charge no virtual
//! time. They run on the same transport (so they compose with live
//! worlds; each call claims its own sequence numbers) and exist for the
//! equivalence property tests and as executable documentation of the
//! baseline the pooled transport replaced.

use crate::comm::{lane, msg_key, Comm, ReduceOp};
use crate::fault::{unwrap_comm, CommError};
use crate::group::ProcessGroup;

/// Serial replay of the recursive-halving reduce-scatter fold order:
/// given every member's input buffer (group-position order), produce the
/// shard each member ends up with, folding exactly as the parallel
/// algorithm does (`own = op(own, incoming)` on the kept half at every
/// step, partners snapshotted pre-step). Bitwise oracle for
/// `reduce_scatter` under `SchedKind::ReduceScatterRh`. Power-of-two member counts only;
/// buffer lengths must divide by the group size.
pub fn replay_rh_reduce_scatter(inputs: &[Vec<f32>], op: ReduceOp) -> Vec<Vec<f32>> {
    let g = inputs.len();
    if g == 1 {
        return vec![inputs[0].clone()];
    }
    assert!(g.is_power_of_two(), "recursive halving needs pow2 groups");
    let n = inputs[0].len();
    assert!(n.is_multiple_of(g), "length must divide by group size");
    let chunk = n / g;
    let mut work: Vec<Vec<f32>> = inputs.to_vec();
    // Per-position window of chunk indices still being accumulated:
    // [lo, lo+span) — span is uniform across positions at each step.
    let mut lo = vec![0usize; g];
    let mut span = g;
    while span > 1 {
        let half = span / 2;
        let snapshot = work.clone();
        for pos in 0..g {
            let mid = lo[pos] + half;
            let in_lower = pos < mid;
            let keep = if in_lower {
                lo[pos] * chunk..mid * chunk
            } else {
                mid * chunk..(lo[pos] + span) * chunk
            };
            // The partner's send range is exactly this rank's keep range,
            // read from the partner's pre-step buffer.
            let partner = if in_lower { pos + half } else { pos - half };
            for (w, d) in work[pos][keep.clone()]
                .iter_mut()
                .zip(snapshot[partner][keep.clone()].iter())
            {
                *w = op.combine(*w, *d);
            }
            if !in_lower {
                lo[pos] = mid;
            }
        }
        span = half;
    }
    (0..g)
        .map(|pos| work[pos][pos * chunk..(pos + 1) * chunk].to_vec())
        .collect()
}

/// Serial replay of the recursive halving/doubling all-reduce: pad with
/// the operator identity, [`replay_rh_reduce_scatter`], concatenate the
/// shards (the recursive-doubling all-gather is pure data movement),
/// truncate. Bitwise oracle for `all_reduce` under `SchedKind::AllReduceRhd`.
pub fn replay_rhd_all_reduce(inputs: &[Vec<f32>], op: ReduceOp) -> Vec<f32> {
    let g = inputs.len();
    if g == 1 {
        return inputs[0].clone();
    }
    let n = inputs[0].len();
    let padded = n.div_ceil(g) * g;
    let pad = match op {
        ReduceOp::Sum => 0.0,
        ReduceOp::Max => f32::NEG_INFINITY,
    };
    let work: Vec<Vec<f32>> = inputs
        .iter()
        .map(|b| {
            let mut w = b.clone();
            w.resize(padded, pad);
            w
        })
        .collect();
    let mut full = replay_rh_reduce_scatter(&work, op).concat();
    full.truncate(n);
    full
}

/// Serial replay of the binomial-tree all-reduce fold order: at step `s`
/// (mask `2^s`) every surviving position `p` (with `p mod 2^(s+1) == 0`)
/// folds the accumulated buffer of `p + 2^s` when that position exists,
/// as `own = op(own, incoming)`. The tree broadcast back down copies the
/// root's buffer verbatim, so the root's accumulation is the result on
/// every member. Bitwise oracle for `all_reduce` under `SchedKind::AllReduceTree`;
/// any group size.
pub fn replay_tree_all_reduce(inputs: &[Vec<f32>], op: ReduceOp) -> Vec<f32> {
    let g = inputs.len();
    let mut acc: Vec<Vec<f32>> = inputs.to_vec();
    let mut mask = 1usize;
    while mask < g {
        for pos in (0..g).step_by(mask * 2) {
            if pos + mask < g {
                let (low, high) = acc.split_at_mut(pos + mask);
                for (w, d) in low[pos].iter_mut().zip(high[0].iter()) {
                    *w = op.combine(*w, *d);
                }
            }
        }
        mask <<= 1;
    }
    acc.swap_remove(0)
}

impl Comm {
    /// Seed-style ring all-gather (unpooled, unsegmented). Returns all
    /// members' shards concatenated in group-position order.
    pub fn reference_all_gather(&self, group: &ProcessGroup, shard: &[f32]) -> Vec<f32> {
        unwrap_comm(self.try_reference_all_gather(group, shard))
    }

    /// Fallible [`reference_all_gather`](Self::reference_all_gather).
    pub fn try_reference_all_gather(
        &self,
        group: &ProcessGroup,
        shard: &[f32],
    ) -> Result<Vec<f32>, CommError> {
        let g = group.size();
        if g == 1 {
            return Ok(shard.to_vec());
        }
        let seq = self.next_seq(group);
        let shared = &self.shared;
        let rank = self.rank();
        let gk = group.key();
        let pos = group.position_of(rank);
        let next = group.next_of(rank);
        let prev = group.prev_of(rank);
        let chunk = shard.len();
        let mut out = vec![0.0f32; chunk * g];
        out[pos * chunk..(pos + 1) * chunk].copy_from_slice(shard);
        for s in 0..g - 1 {
            let send_c = (pos + g - s) % g;
            shared.transport.send(
                rank,
                next,
                msg_key(gk, seq, lane::AG + s as u32),
                out[send_c * chunk..(send_c + 1) * chunk].to_vec(),
            );
            let recv_c = (pos + g - s - 1) % g;
            let data =
                shared
                    .transport
                    .recv_result(rank, prev, msg_key(gk, seq, lane::AG + s as u32))?;
            assert_eq!(data.len(), chunk, "all-gather shard length mismatch");
            out[recv_c * chunk..(recv_c + 1) * chunk].copy_from_slice(&data);
        }
        Ok(out)
    }

    /// Seed-style ring reduce-scatter (sum). The buffer length must be
    /// divisible by the group size.
    pub fn reference_reduce_scatter(&self, group: &ProcessGroup, buf: &[f32]) -> Vec<f32> {
        unwrap_comm(self.try_reference_reduce_scatter(group, buf, ReduceOp::Sum))
    }

    /// Fallible reference reduce-scatter with an explicit operator.
    pub fn try_reference_reduce_scatter(
        &self,
        group: &ProcessGroup,
        buf: &[f32],
        op: ReduceOp,
    ) -> Result<Vec<f32>, CommError> {
        let g = group.size();
        if g == 1 {
            return Ok(buf.to_vec());
        }
        if !buf.len().is_multiple_of(g) {
            return Err(CommError::InvalidBuffer {
                op: "reduce_scatter",
                detail: format!("length {} not divisible by group size {g}", buf.len()),
            });
        }
        let seq = self.next_seq(group);
        let shared = &self.shared;
        let rank = self.rank();
        let gk = group.key();
        let pos = group.position_of(rank);
        let next = group.next_of(rank);
        let prev = group.prev_of(rank);
        let chunk = buf.len() / g;
        let mut work = buf.to_vec();
        for s in 0..g - 1 {
            let send_c = (pos + 2 * g - s - 1) % g;
            shared.transport.send(
                rank,
                next,
                msg_key(gk, seq, lane::RS + s as u32),
                work[send_c * chunk..(send_c + 1) * chunk].to_vec(),
            );
            let recv_c = (pos + 2 * g - s - 2) % g;
            let data =
                shared
                    .transport
                    .recv_result(rank, prev, msg_key(gk, seq, lane::RS + s as u32))?;
            assert_eq!(data.len(), chunk, "reduce-scatter chunk length mismatch");
            for (w, d) in work[recv_c * chunk..(recv_c + 1) * chunk]
                .iter_mut()
                .zip(data.iter())
            {
                *w = op.combine(*w, *d);
            }
        }
        Ok(work[pos * chunk..(pos + 1) * chunk].to_vec())
    }

    /// Seed-style in-place sum all-reduce: pad, reduce-scatter,
    /// all-gather, truncate — identical arithmetic pairing to the pooled
    /// path, which is exactly what the equivalence tests assert.
    pub fn reference_all_reduce(&self, group: &ProcessGroup, buf: &mut [f32]) {
        unwrap_comm(self.try_reference_all_reduce(group, buf, ReduceOp::Sum))
    }

    /// Fallible reference all-reduce with an explicit operator.
    pub fn try_reference_all_reduce(
        &self,
        group: &ProcessGroup,
        buf: &mut [f32],
        op: ReduceOp,
    ) -> Result<(), CommError> {
        let g = group.size();
        if g == 1 {
            return Ok(());
        }
        let n = buf.len();
        let padded = n.div_ceil(g) * g;
        let mut work = buf.to_vec();
        let pad = match op {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f32::NEG_INFINITY,
        };
        work.resize(padded, pad);
        let mine = self.try_reference_reduce_scatter(group, &work, op)?;
        let full = self.try_reference_all_gather(group, &mine)?;
        buf.copy_from_slice(&full[..n]);
        Ok(())
    }

    /// Seed-style broadcast: the root sends one full copy of the buffer
    /// to every other member (star fan-out).
    pub fn reference_broadcast(&self, group: &ProcessGroup, root_pos: usize, buf: &mut [f32]) {
        unwrap_comm(self.try_reference_broadcast(group, root_pos, buf))
    }

    /// Fallible reference broadcast.
    pub fn try_reference_broadcast(
        &self,
        group: &ProcessGroup,
        root_pos: usize,
        buf: &mut [f32],
    ) -> Result<(), CommError> {
        let g = group.size();
        if g == 1 {
            return Ok(());
        }
        let seq = self.next_seq(group);
        let shared = &self.shared;
        let rank = self.rank();
        let gk = group.key();
        let pos = group.position_of(rank);
        if pos == root_pos {
            for p in 0..g {
                if p != root_pos {
                    shared.transport.send(
                        rank,
                        group.rank_at(p),
                        msg_key(gk, seq, lane::BCAST + p as u32),
                        buf.to_vec(),
                    );
                }
            }
        } else {
            let data = shared.transport.recv_result(
                rank,
                group.rank_at(root_pos),
                msg_key(gk, seq, lane::BCAST + pos as u32),
            )?;
            assert_eq!(data.len(), buf.len(), "broadcast length mismatch");
            buf.copy_from_slice(&data);
        }
        Ok(())
    }
}
