//! Per-session K/V cache: per-layer tensors with append-on-decode and
//! a capacity/eviction policy.
//!
//! Each layer stores its K and V activations row-major `t × hidden`
//! (one row per served position). A prefill appends `s` rows, a decode
//! step appends one; the attention GeMMs consume per-head views —
//! the crate-internal `k_head_t` accessor materializes the transposed
//! dₕ×t score operand, `v_head` the t×dₕ context operand — as dense
//! B-side operands, since (unlike the static weights) they grow every
//! step.

use std::sync::Arc;

use camp_core::backend::env_usize;

use crate::session::InferError;

/// What to do when appending would exceed the cache's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KvPolicy {
    /// Refuse the step with [`InferError::KvFull`]; the session keeps
    /// its state and the caller decides (default).
    #[default]
    Reject,
    /// Sliding window: evict the oldest rows from every layer to make
    /// room. Positions keep counting up; the causal mask simply sees a
    /// truncated history. This breaks the decode-equals-recompute
    /// bit-parity guarantee once eviction kicks in — by construction,
    /// the recompute would see rows the window dropped.
    Window,
}

/// Environment knob overriding the default per-session KV capacity
/// (rows per layer). Unset or zero means the model's `seq_len`; a
/// value that is not an integer panics.
pub const KV_CAPACITY_ENV: &str = "CAMP_KV_CAPACITY";

/// Per-layer K/V storage for one inference session.
#[derive(Debug, Clone)]
pub struct KvCache {
    /// Flattened per-layer K then V, each row-major `len × hidden`.
    k: Vec<Vec<i8>>,
    v: Vec<Vec<i8>>,
    hidden: usize,
    capacity: usize,
    policy: KvPolicy,
    /// Absolute position of row 0 (nonzero only after Window eviction).
    base: usize,
}

impl KvCache {
    /// An empty cache for `layers` layers of width `hidden`, holding at
    /// most `capacity` rows per layer.
    ///
    /// # Panics
    /// Panics when `capacity` or `hidden` is zero.
    pub fn new(layers: usize, hidden: usize, capacity: usize, policy: KvPolicy) -> KvCache {
        assert!(capacity > 0, "KV capacity must be at least one row");
        assert!(hidden > 0, "KV row width must be nonzero");
        KvCache {
            k: vec![Vec::new(); layers],
            v: vec![Vec::new(); layers],
            hidden,
            capacity,
            policy,
            base: 0,
        }
    }

    /// Capacity honoring the `CAMP_KV_CAPACITY` environment knob, with
    /// `default` (typically the model's `seq_len`) when unset. Zero is
    /// treated as unset.
    ///
    /// # Panics
    /// Panics when the knob is set to something that is not a
    /// non-negative integer.
    pub fn capacity_from_env(default: usize) -> usize {
        match env_usize(KV_CAPACITY_ENV) {
            Some(n) if n > 0 => n,
            _ => default,
        }
    }

    /// Rows currently cached per layer.
    pub fn len(&self) -> usize {
        self.k.first().map_or(0, |l| l.len() / self.hidden)
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum rows per layer.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The eviction policy.
    pub fn policy(&self) -> KvPolicy {
        self.policy
    }

    /// Absolute position of the oldest cached row (nonzero only after
    /// [`KvPolicy::Window`] eviction).
    pub fn base(&self) -> usize {
        self.base
    }

    /// Drop everything but keep the configuration; positions restart
    /// at zero.
    pub fn clear(&mut self) {
        for l in &mut self.k {
            l.clear();
        }
        for l in &mut self.v {
            l.clear();
        }
        self.base = 0;
    }

    /// Make room for `rows` new positions before a forward pass:
    /// either error ([`KvPolicy::Reject`]) or evict the oldest rows
    /// from every layer ([`KvPolicy::Window`]). A step larger than the
    /// whole capacity is refused under either policy.
    pub(crate) fn ensure_room(&mut self, rows: usize) -> Result<(), InferError> {
        if rows > self.capacity {
            return Err(InferError::KvFull { capacity: self.capacity });
        }
        let need = self.len() + rows;
        if need <= self.capacity {
            return Ok(());
        }
        let evict = need - self.capacity;
        match self.policy {
            KvPolicy::Reject => Err(InferError::KvFull { capacity: self.capacity }),
            KvPolicy::Window => {
                let cut = evict * self.hidden;
                for l in self.k.iter_mut().chain(self.v.iter_mut()) {
                    l.drain(..cut);
                }
                self.base += evict;
                Ok(())
            }
        }
    }

    /// Append one position's K and V rows to `layer`. Callers must
    /// have reserved space with [`KvCache::ensure_room`] first.
    pub(crate) fn push(&mut self, layer: usize, k_row: &[i8], v_row: &[i8]) {
        debug_assert_eq!(k_row.len(), self.hidden);
        debug_assert_eq!(v_row.len(), self.hidden);
        self.k[layer].extend_from_slice(k_row);
        self.v[layer].extend_from_slice(v_row);
    }

    /// Rows currently cached in one specific layer — differs from
    /// [`KvCache::len`] only mid-forward, while later layers have not
    /// been pushed yet.
    pub(crate) fn layer_len(&self, layer: usize) -> usize {
        self.k[layer].len() / self.hidden
    }

    /// The transposed per-head key operand Kᵀ (dₕ × t) for the
    /// attention score GeMM, as a dense B-side operand.
    pub(crate) fn k_head_t(&self, layer: usize, head: usize, dh: usize) -> Arc<[i8]> {
        let t = self.layer_len(layer);
        let src = &self.k[layer];
        let off = head * dh;
        let mut out = vec![0i8; dh * t];
        for r in 0..dh {
            for j in 0..t {
                out[r * t + j] = src[j * self.hidden + off + r];
            }
        }
        out.into()
    }

    /// The per-head value operand V (t × dₕ) for the attention context
    /// GeMM, as a dense B-side operand.
    pub(crate) fn v_head(&self, layer: usize, head: usize, dh: usize) -> Arc<[i8]> {
        let t = self.layer_len(layer);
        let src = &self.v[layer];
        let off = head * dh;
        let mut out = vec![0i8; t * dh];
        for j in 0..t {
            out[j * dh..(j + 1) * dh].copy_from_slice(&src[j * self.hidden + off..][..dh]);
        }
        out.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_and_views() {
        let mut kv = KvCache::new(1, 4, 8, KvPolicy::Reject);
        assert!(kv.is_empty());
        kv.ensure_room(2).unwrap();
        kv.push(0, &[1, 2, 3, 4], &[5, 6, 7, 8]);
        kv.push(0, &[9, 10, 11, 12], &[13, 14, 15, 16]);
        assert_eq!(kv.len(), 2);
        // two heads of dh = 2: head 1 covers columns 2..4
        let kt = kv.k_head_t(0, 1, 2);
        assert_eq!(&kt[..], &[3, 11, 4, 12], "dh x t transpose");
        let v = kv.v_head(0, 1, 2);
        assert_eq!(&v[..], &[7, 8, 15, 16], "t x dh slice");
    }

    #[test]
    fn reject_policy_errors_when_full() {
        let mut kv = KvCache::new(2, 4, 2, KvPolicy::Reject);
        kv.ensure_room(2).unwrap();
        for l in 0..2 {
            kv.push(l, &[0; 4], &[0; 4]);
            kv.push(l, &[0; 4], &[0; 4]);
        }
        let err = kv.ensure_room(1).unwrap_err();
        assert!(matches!(err, InferError::KvFull { capacity: 2 }));
        assert_eq!(kv.len(), 2, "a rejected step must not disturb the cache");
        assert_eq!(kv.base(), 0);
    }

    #[test]
    fn window_policy_evicts_oldest() {
        let mut kv = KvCache::new(1, 2, 2, KvPolicy::Window);
        kv.ensure_room(2).unwrap();
        kv.push(0, &[1, 1], &[1, 1]);
        kv.push(0, &[2, 2], &[2, 2]);
        kv.ensure_room(1).unwrap();
        kv.push(0, &[3, 3], &[3, 3]);
        assert_eq!(kv.len(), 2);
        assert_eq!(kv.base(), 1, "row 0 now holds absolute position 1");
        let kt = kv.k_head_t(0, 0, 2);
        assert_eq!(&kt[..], &[2, 3, 2, 3]);
        // a step wider than the whole window is refused even here
        assert!(kv.ensure_room(3).is_err());
    }

    #[test]
    fn capacity_env_defaults_when_unset() {
        // no env mutation (tests run in parallel): only meaningful
        // when the knob is not set in the surrounding environment
        if std::env::var(KV_CAPACITY_ENV).is_err() {
            assert_eq!(KvCache::capacity_from_env(128), 128);
        }
    }
}
