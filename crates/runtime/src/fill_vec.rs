//! [`FillVec`]: what a wait on one thing from every party collects.

/// One slot per party — a group, an intake chunk, a process, a round —
/// each written at most once (after tofn's `FillVecMap`).
#[derive(Clone, Debug, Default)]
pub(crate) struct FillVec<V>(Vec<Option<V>>);

impl<V> FillVec<V> {
    pub(crate) fn new(len: usize) -> Self {
        Self((0..len).map(|_| None).collect())
    }

    /// Fills slot `index`, or hands `value` back if it is filled or absent.
    pub(crate) fn set(&mut self, index: usize, value: V) -> Result<(), V> {
        let Some(slot @ None) = self.0.get_mut(index) else {
            return Err(value);
        };
        *slot = Some(value);
        Ok(())
    }

    pub(crate) fn get(&self, index: usize) -> Option<&V> {
        self.0.get(index)?.as_ref()
    }

    pub(crate) fn is_full(&self) -> bool {
        self.0.iter().all(Option::is_some)
    }

    /// The empty slots, ascending.
    pub(crate) fn missing(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.0.len()).filter(|&index| self.0[index].is_none())
    }

    /// Every value in slot order, once every slot is filled.
    pub(crate) fn into_full(self) -> Option<Vec<V>> {
        self.0.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::FillVec;

    #[test]
    fn each_slot_is_written_once_and_the_full_vec_is_in_slot_order() {
        let mut slots = FillVec::new(3);
        assert_eq!(slots.missing().collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(slots.set(2, "c"), Ok(()));
        assert_eq!(slots.set(2, "again"), Err("again"), "a filled slot");
        assert_eq!(slots.set(3, "d"), Err("d"), "no such slot");
        assert_eq!(
            (slots.get(2), slots.get(0), slots.get(3)),
            (Some(&"c"), None, None)
        );
        assert_eq!(slots.missing().collect::<Vec<_>>(), [0, 1]);
        assert!(!slots.is_full());
        slots.set(0, "a").unwrap();
        slots.set(1, "b").unwrap();
        assert!(slots.is_full() && slots.missing().next().is_none());
        assert_eq!(slots.into_full(), Some(vec!["a", "b", "c"]));
    }

    #[test]
    fn a_vec_with_an_empty_slot_is_not_full_and_one_without_slots_is() {
        let mut slots = FillVec::new(2);
        slots.set(0, 1u8).unwrap();
        assert_eq!(slots.missing().collect::<Vec<_>>(), [1]);
        assert_eq!(slots.into_full(), None);
        let none: FillVec<u8> = FillVec::default();
        assert!(none.is_full());
        assert_eq!(none.into_full(), Some(Vec::new()));
    }
}
