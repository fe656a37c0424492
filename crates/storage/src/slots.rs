//! The slots of a short postings list, without a heap allocation for one.
//!
//! Under heavy-tailed term distributions most lists hold a single posting
//! (two in three at 2 000 Connected queries), so the allocation behind a
//! one-element slice — its payload plus the allocator's own header — is a
//! fixed cost paid per list. [`Slots`] keeps one element inline and more in
//! a boxed slice, in the 16 bytes of the boxed slice alone: the enum's tag
//! lives in the box pointer's null niche.

/// One element inline, or a boxed slice (see module docs). An empty slice
/// is `Heap` of an empty box, which allocates nothing.
#[derive(Debug, Clone)]
pub enum Slots<T> {
    One(T),
    Heap(Box<[T]>),
}

impl<T> Default for Slots<T> {
    fn default() -> Self {
        Slots::Heap(Box::default())
    }
}

impl<T: Copy> Slots<T> {
    /// Exactly `slots`: inline when there is one, else a boxed copy.
    pub fn from_slice(slots: &[T]) -> Self {
        match *slots {
            [one] => Slots::One(one),
            _ => Slots::Heap(Box::from(slots)),
        }
    }

    /// Every slot held (a boxed slice may hold more than its owner uses).
    #[inline]
    pub fn all(&self) -> &[T] {
        match self {
            Slots::One(one) => std::slice::from_ref(one),
            Slots::Heap(slots) => slots,
        }
    }

    #[inline]
    pub fn all_mut(&mut self) -> &mut [T] {
        match self {
            Slots::One(one) => std::slice::from_mut(one),
            Slots::Heap(slots) => slots,
        }
    }

    /// Heap bytes: the boxed slice's, none for an inline element.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Slots::One(_) => 0,
            Slots::Heap(slots) => std::mem::size_of_val::<[T]>(slots),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_slot_is_inline_and_the_enum_is_a_boxed_slice_wide() {
        assert_eq!(std::mem::size_of::<Slots<(u32, f32)>>(), 16);
        assert_eq!(std::mem::size_of::<Slots<f64>>(), 16);
        let one = Slots::from_slice(&[(7u32, 0.5f32)]);
        assert!(matches!(one, Slots::One(_)));
        assert_eq!((one.all(), one.heap_bytes()), (&[(7, 0.5)][..], 0));
        let empty = Slots::<(u32, f32)>::from_slice(&[]);
        assert_eq!((empty.all().len(), empty.heap_bytes()), (0, 0));
        let mut two = Slots::from_slice(&[(1u32, 1.0f32), (2, 2.0)]);
        two.all_mut()[1].1 = 0.0;
        assert_eq!((two.all(), two.heap_bytes()), (&[(1, 1.0), (2, 0.0)][..], 16));
    }
}
