//! Sequential stub for rayon: par_* map onto std iterators.

pub mod prelude {
    pub trait ParallelSliceMut<T> {
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T>;
    }
    impl<T> ParallelSliceMut<T> for [T] {
        fn par_chunks_mut(&mut self, size: usize) -> std::slice::ChunksMut<'_, T> {
            self.chunks_mut(size)
        }
    }

    pub trait IntoParallelRefIterator<'a> {
        type Iter;
        fn par_iter(&'a self) -> Self::Iter;
    }
    impl<'a, T: 'a> IntoParallelRefIterator<'a> for Vec<T> {
        type Iter = std::slice::Iter<'a, T>;
        fn par_iter(&'a self) -> std::slice::Iter<'a, T> {
            self.iter()
        }
    }
    impl<'a, T: 'a> IntoParallelRefIterator<'a> for [T] {
        type Iter = std::slice::Iter<'a, T>;
        fn par_iter(&'a self) -> std::slice::Iter<'a, T> {
            self.iter()
        }
    }

    pub trait IntoParallelIterator {
        type Iter;
        fn into_par_iter(self) -> Self::Iter;
    }
    impl<T> IntoParallelIterator for Vec<T> {
        type Iter = std::vec::IntoIter<T>;
        fn into_par_iter(self) -> std::vec::IntoIter<T> {
            self.into_iter()
        }
    }
}
