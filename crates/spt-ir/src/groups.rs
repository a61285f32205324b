//! Values grouped by a dense id, stored flat.

use std::marker::PhantomData;

/// Values grouped by a dense key (a block or variable id): [`Groups::of`]
/// returns one key's values in the order they were given. One flat list
/// plus per-key offsets, so a build allocates twice however many keys
/// there are, and [`Groups::rebuild`] not at all once the buffers fit.
#[derive(Clone, Debug)]
pub struct Groups<K, T> {
    /// `items[start[k]..start[k + 1]]` are key `k`'s values.
    start: Vec<u32>,
    items: Vec<T>,
    key: PhantomData<K>,
}

impl<K, T> Default for Groups<K, T> {
    /// No keys.
    fn default() -> Self {
        Groups {
            start: Vec::new(),
            items: Vec::new(),
            key: PhantomData,
        }
    }
}

impl<K: Into<usize>, T: Copy> Groups<K, T> {
    /// Groups `pairs` over the keys `0..keys`.
    pub fn new<I>(keys: usize, pairs: I) -> Self
    where
        I: DoubleEndedIterator<Item = (K, T)> + Clone,
    {
        let mut groups = Groups::default();
        groups.rebuild(keys, pairs);
        groups
    }

    /// Regroups in place, reusing the buffers.
    pub fn rebuild<I>(&mut self, keys: usize, pairs: I)
    where
        I: DoubleEndedIterator<Item = (K, T)> + Clone,
    {
        self.start.clear();
        self.start.resize(keys + 1, 0);
        for (k, _) in pairs.clone() {
            self.start[k.into()] += 1;
        }
        for k in 1..=keys {
            self.start[k] += self.start[k - 1];
        }
        // `start[k]` is now the end of key `k`'s run; filling back to front
        // walks it down to the run's start.
        self.items.clear();
        let Some((_, fill)) = pairs.clone().next() else {
            return;
        };
        self.items.resize(self.start[keys] as usize, fill);
        for (k, v) in pairs.rev() {
            let k = k.into();
            self.start[k] -= 1;
            self.items[self.start[k] as usize] = v;
        }
    }

    /// Key `key`'s values.
    pub fn of(&self, key: K) -> &[T] {
        let k = key.into();
        &self.items[self.start[k] as usize..self.start[k + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BlockId;

    #[test]
    fn groups_keep_each_keys_order() {
        let b = BlockId::new;
        let pairs = [(b(2), 'a'), (b(0), 'b'), (b(2), 'c'), (b(0), 'd')];
        let mut g = Groups::new(4, pairs.iter().copied());
        assert_eq!(g.of(b(0)), ['b', 'd']);
        assert!(g.of(b(1)).is_empty());
        assert_eq!(g.of(b(2)), ['a', 'c']);
        assert!(g.of(b(3)).is_empty());
        g.rebuild(2, [(b(1), 'e')].into_iter());
        assert!(g.of(b(0)).is_empty());
        assert_eq!(g.of(b(1)), ['e']);
        g.rebuild(2, std::iter::empty());
        assert!(g.of(b(1)).is_empty());
    }
}
