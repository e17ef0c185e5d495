//! Buffers: memory encapsulation with per-domain instantiation.
//!
//! Every call names memory as a [`BufferId`] plus a byte offset — the
//! (buffer, offset) pair the paper's source proxy address translates to —
//! and a buffer owns a set of *instantiations*, one per domain where a
//! tuner materialized it.
//! Usage properties (read-only, access pattern) belong to the user; where a
//! buffer is instantiated belongs to the tuner — the separation of concerns
//! the paper emphasizes. The paper's memory kinds (high-bandwidth,
//! persistent) are not modelled: every instantiation is plain RAM.

use crate::types::{BufferId, DomainId, HsError, HsResult};
use hs_coi::PooledWindow;
use std::collections::HashMap;

/// User-declared usage properties.
#[derive(Clone, Debug, Default)]
pub struct BufProps {
    /// Declared read-only (the runtime rejects write operands on it).
    pub read_only: bool,
    /// Optional label used in traces.
    pub label: Option<String>,
}

impl BufProps {
    pub fn labeled(label: impl Into<String>) -> BufProps {
        BufProps {
            label: Some(label.into()),
            ..BufProps::default()
        }
    }
}

/// One domain's materialization of a buffer.
pub enum Instantiation {
    /// Real mode: a window in that domain's memory arena.
    Window(PooledWindow),
    /// Sim mode: the instantiation exists logically.
    Virtual,
}

/// A buffer record.
pub struct BufferRec {
    pub id: BufferId,
    pub len: usize,
    pub props: BufProps,
    pub inst: HashMap<DomainId, Instantiation>,
}

impl BufferRec {
    pub fn window(&self, domain: DomainId) -> HsResult<PooledWindow> {
        match self.inst.get(&domain) {
            Some(Instantiation::Window(w)) => Ok(*w),
            Some(Instantiation::Virtual) => Err(HsError::InvalidArg(format!(
                "buffer {:?} is virtual (sim mode) in domain {domain:?}",
                self.id
            ))),
            None => Err(HsError::NotInstantiated(self.id, domain)),
        }
    }

    pub fn is_instantiated(&self, domain: DomainId) -> bool {
        self.inst.contains_key(&domain)
    }

    pub fn check_range(&self, range: &std::ops::Range<usize>) -> HsResult<()> {
        if range.start > range.end || range.end > self.len {
            return Err(HsError::OutOfBounds {
                buffer: self.id,
                range: range.clone(),
                len: self.len,
            });
        }
        Ok(())
    }

    pub fn label(&self) -> String {
        self.props
            .label
            .clone()
            .unwrap_or_else(|| format!("buf{}", self.id.0))
    }
}

/// All buffers, by id.
#[derive(Default)]
pub struct BufferTable {
    bufs: HashMap<u64, BufferRec>,
    next: u64,
}

impl BufferTable {
    pub fn new() -> BufferTable {
        BufferTable::default()
    }

    pub fn create(&mut self, len: usize, props: BufProps) -> BufferId {
        let id = BufferId(self.next);
        self.next += 1;
        self.bufs.insert(
            id.0,
            BufferRec {
                id,
                len,
                props,
                inst: HashMap::new(),
            },
        );
        id
    }

    pub fn get(&self, id: BufferId) -> HsResult<&BufferRec> {
        self.bufs.get(&id.0).ok_or(HsError::UnknownBuffer(id))
    }

    pub fn get_mut(&mut self, id: BufferId) -> HsResult<&mut BufferRec> {
        self.bufs.get_mut(&id.0).ok_or(HsError::UnknownBuffer(id))
    }

    /// Remove a buffer; returns its instantiations for the caller to free.
    pub fn destroy(&mut self, id: BufferId) -> HsResult<Vec<(DomainId, Instantiation)>> {
        let rec = self.bufs.remove(&id.0).ok_or(HsError::UnknownBuffer(id))?;
        Ok(rec.inst.into_iter().collect())
    }

    /// Mutable walk over every buffer record (card-loss degradation drops
    /// the lost domain's instantiations in place).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut BufferRec> {
        self.bufs.values_mut()
    }

    /// Read-only walk over every buffer record (WAL checkpoints snapshot
    /// host bytes at quiesce).
    pub fn iter(&self) -> impl Iterator<Item = &BufferRec> {
        self.bufs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_buffer_is_error() {
        let t = BufferTable::new();
        assert_eq!(
            t.get(BufferId(9)).err(),
            Some(HsError::UnknownBuffer(BufferId(9)))
        );
    }

    #[test]
    fn instantiation_bookkeeping() {
        let mut t = BufferTable::new();
        let b = t.create(64, BufProps::default());
        let rec = t.get_mut(b).expect("exists");
        assert!(!rec.is_instantiated(DomainId(1)));
        rec.inst.insert(DomainId(1), Instantiation::Virtual);
        assert!(rec.is_instantiated(DomainId(1)));
        assert!(matches!(
            rec.window(DomainId(2)),
            Err(HsError::NotInstantiated(_, _))
        ));
        assert!(matches!(
            rec.window(DomainId(1)),
            Err(HsError::InvalidArg(_))
        ));
    }

    #[test]
    fn range_checking() {
        let mut t = BufferTable::new();
        let b = t.create(10, BufProps::default());
        let rec = t.get(b).expect("exists");
        assert!(rec.check_range(&(0..10)).is_ok());
        assert!(rec.check_range(&(0..11)).is_err());
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 5..3;
        assert!(rec.check_range(&reversed).is_err());
    }

    #[test]
    fn labels_fall_back_to_id() {
        let mut t = BufferTable::new();
        let a = t.create(1, BufProps::labeled("tileA"));
        let b = t.create(1, BufProps::default());
        assert_eq!(t.get(a).expect("exists").label(), "tileA");
        assert!(t.get(b).expect("exists").label().starts_with("buf"));
    }
}
