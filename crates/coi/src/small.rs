//! An inline-first small vector: the per-action lists of the hot paths
//! (dependence fan-in, operand windows, an event's dependents, the sink's
//! operand guards) are nearly always a handful of items, so they live inside
//! the structure that owns them and touch the heap only when they outgrow it.

/// A vector that stores up to `N` items inline and spills to a contiguous
/// heap `Vec` beyond that. Unlike a fragmented inline+overflow split, the
/// storage is always one contiguous slice, so in-place sort and dedup work
/// directly. Unused inline slots hold `T::default()`.
pub struct SmallVec<T, const N: usize> {
    inline: [T; N],
    /// Length of the inline prefix; ignored once `heap` is `Some`.
    len: usize,
    heap: Option<Vec<T>>,
}

impl<T: Default, const N: usize> SmallVec<T, N> {
    pub fn new() -> SmallVec<T, N> {
        SmallVec {
            inline: std::array::from_fn(|_| T::default()),
            len: 0,
            heap: None,
        }
    }

    pub fn len(&self) -> usize {
        match &self.heap {
            Some(h) => h.len(),
            None => self.len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Did this vector ever overflow its inline capacity? (Once spilled, a
    /// `clear` keeps the heap allocation for reuse.)
    #[cfg(test)]
    pub fn spilled(&self) -> bool {
        self.heap.is_some()
    }

    pub fn push(&mut self, v: T) {
        match &mut self.heap {
            Some(h) => h.push(v),
            None if self.len < N => {
                self.inline[self.len] = v;
                self.len += 1;
            }
            None => {
                let mut h = Vec::with_capacity(2 * N);
                h.extend(self.inline.iter_mut().map(std::mem::take));
                h.push(v);
                self.heap = Some(h);
            }
        }
    }

    pub fn extend_from_slice(&mut self, vs: &[T])
    where
        T: Clone,
    {
        for v in vs {
            self.push(v.clone());
        }
    }

    pub fn clear(&mut self) {
        self.truncate(0);
    }

    pub fn as_slice(&self) -> &[T] {
        match &self.heap {
            Some(h) => h.as_slice(),
            None => &self.inline[..self.len],
        }
    }

    pub fn as_mut_slice(&mut self) -> &mut [T] {
        match &mut self.heap {
            Some(h) => h.as_mut_slice(),
            None => &mut self.inline[..self.len],
        }
    }

    fn truncate(&mut self, n: usize) {
        match &mut self.heap {
            Some(h) => h.truncate(n),
            None => {
                // Dropped items leave their slot at the default, so nothing
                // an item owns outlives its removal.
                for slot in self.inline[..self.len].iter_mut().skip(n) {
                    *slot = T::default();
                }
                self.len = self.len.min(n);
            }
        }
    }

    /// Keep only the items `keep` accepts, in order.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        let s = self.as_mut_slice();
        let mut kept = 0;
        for i in 0..s.len() {
            if keep(&s[i]) {
                s.swap(kept, i);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Sort ascending and drop duplicates, in place.
    pub fn sort_dedup(&mut self)
    where
        T: Ord,
    {
        let s = self.as_mut_slice();
        s.sort_unstable();
        let mut keep = 0;
        for i in 0..s.len() {
            if i == 0 || s[i] != s[keep - 1] {
                s.swap(keep, i);
                keep += 1;
            }
        }
        self.truncate(keep);
    }

    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.as_slice().iter()
    }
}

impl<T: Default, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Default, const N: usize> std::ops::Deref for SmallVec<T, N> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<'a, T: Default, const N: usize> IntoIterator for &'a SmallVec<T, N> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: Default, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for item in iter {
            v.push(item);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_until_capacity_then_spills() {
        let mut v: SmallVec<u64, 4> = SmallVec::new();
        for i in 0..4 {
            v.push(i);
        }
        assert!(!v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3]);
        v.push(4);
        assert!(v.spilled());
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 4]);
    }

    #[test]
    fn sort_dedup_inline_and_spilled() {
        let mut v: SmallVec<u64, 4> = SmallVec::new();
        v.extend_from_slice(&[3, 1, 3, 2]);
        v.sort_dedup();
        assert_eq!(v.as_slice(), &[1, 2, 3]);
        v.extend_from_slice(&[2, 9, 9, 0, 1]);
        v.sort_dedup();
        assert_eq!(v.as_slice(), &[0, 1, 2, 3, 9]);
        assert!(v.spilled());
    }

    #[test]
    fn clear_keeps_spilled_capacity() {
        let mut v: SmallVec<u64, 2> = SmallVec::new();
        v.extend_from_slice(&[1, 2, 3]);
        v.clear();
        assert!(v.is_empty());
        assert!(v.spilled(), "heap allocation is retained for reuse");
    }

    #[test]
    fn empty_sort_dedup_is_fine() {
        let mut v: SmallVec<u64, 2> = SmallVec::new();
        v.sort_dedup();
        assert!(v.is_empty());
    }

    #[test]
    fn owning_items_move_on_spill_and_drop_on_clear() {
        let probe = std::sync::Arc::new(());
        let mut v: SmallVec<Option<std::sync::Arc<()>>, 2> = SmallVec::new();
        for _ in 0..3 {
            v.push(Some(probe.clone()));
        }
        assert!(v.spilled());
        assert_eq!(std::sync::Arc::strong_count(&probe), 4, "moved, not cloned");
        let mut w: SmallVec<Option<std::sync::Arc<()>>, 2> =
            (0..2).map(|_| Some(probe.clone())).collect();
        assert!(!w.spilled());
        w.clear();
        v.clear();
        assert_eq!(std::sync::Arc::strong_count(&probe), 1);
    }
}
