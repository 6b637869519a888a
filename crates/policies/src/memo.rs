//! What a `select` override remembers about the jobs of a sequence.

/// Per job of the simulated sequence (by its position in `jobs`): a value
/// and the inputs it was computed from.
///
/// An entry is **validated by its inputs**: it counts only while the job
/// at that position still has exactly those inputs, so one policy object
/// can be run over any succession of sequences. Position alone, the
/// address or length of `jobs`, or the job id would not do — episodes
/// reuse buffers and lengths, and tests build different jobs with id 1.
#[derive(Debug, Clone)]
pub(crate) struct Memo<K, V> {
    entries: Vec<Option<(K, V)>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            entries: Vec::new(),
        }
    }
}

impl<K: Copy + PartialEq, V: Copy> Memo<K, V> {
    /// Make room for a sequence of `jobs` jobs: one allocation on the
    /// first `select` of a run, none after.
    #[inline]
    pub fn fit(&mut self, jobs: usize) {
        if self.entries.len() < jobs {
            self.entries.resize(jobs, None);
        }
    }

    /// The value remembered for the job at `jidx`, if it was computed
    /// from these `inputs`.
    #[inline]
    pub fn get(&self, jidx: usize, inputs: K) -> Option<V> {
        match self.entries[jidx] {
            Some((seen, value)) if seen == inputs => Some(value),
            _ => None,
        }
    }

    /// Remember `value` as computed from `inputs` for the job at `jidx`.
    #[inline]
    pub fn put(&mut self, jidx: usize, inputs: K, value: V) {
        self.entries[jidx] = Some((inputs, value));
    }
}
