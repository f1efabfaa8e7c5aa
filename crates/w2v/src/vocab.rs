//! Vocabulary construction and the negative-sampling table.

use std::collections::HashMap;

/// A fixed vocabulary with frequency data.
#[derive(Debug, Clone)]
pub struct Vocab {
    /// Word → index.
    index: HashMap<String, usize>,
    /// Index → word.
    words: Vec<String>,
    /// Index → corpus frequency.
    counts: Vec<u64>,
    /// Total token count (after min-count filtering).
    total: u64,
}

impl Vocab {
    /// Builds a vocabulary from sentences, dropping words occurring
    /// fewer than `min_count` times.
    pub fn build(sentences: &[Vec<String>], min_count: u64) -> Vocab {
        let mut freq: HashMap<&str, u64> = HashMap::new();
        for s in sentences {
            for w in s {
                *freq.entry(w.as_str()).or_default() += 1;
            }
        }
        let mut pairs: Vec<(&str, u64)> =
            freq.into_iter().filter(|(_, c)| *c >= min_count).collect();
        // Deterministic order: by descending count, then lexicographic.
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        let mut index = HashMap::new();
        let mut words = Vec::new();
        let mut counts = Vec::new();
        let mut total = 0;
        for (w, c) in pairs {
            index.insert(w.to_string(), words.len());
            words.push(w.to_string());
            counts.push(c);
            total += c;
        }
        Vocab {
            index,
            words,
            counts,
            total,
        }
    }

    /// Builds a vocabulary from an ordered word list with unit counts
    /// (used when loading persisted models, where frequencies are not
    /// stored).
    pub(crate) fn from_words(words: Vec<String>) -> Vocab {
        let index = words
            .iter()
            .enumerate()
            .map(|(i, w)| (w.clone(), i))
            .collect();
        let total = words.len() as u64;
        let counts = vec![1; words.len()];
        Vocab {
            index,
            words,
            counts,
            total,
        }
    }

    /// Looks up a word's index.
    pub fn get(&self, word: &str) -> Option<usize> {
        self.index.get(word).copied()
    }

    /// The word at an index.
    pub fn word(&self, i: usize) -> &str {
        &self.words[i]
    }

    /// Corpus frequency of the word at an index.
    pub fn count(&self, i: usize) -> u64 {
        self.counts[i]
    }

    /// Number of words in the vocabulary.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Builds the unigram^0.75 negative-sampling table of `size`
    /// entries (word2vec's standard construction).
    pub fn negative_table(&self, size: usize) -> Vec<usize> {
        let mut table = Vec::with_capacity(size);
        if self.is_empty() {
            return table;
        }
        let pow = 0.75f64;
        let norm: f64 = self.counts.iter().map(|&c| (c as f64).powf(pow)).sum();
        let mut i = 0usize;
        let mut cum = (self.counts[0] as f64).powf(pow) / norm;
        for t in 0..size {
            table.push(i);
            if (t as f64 + 1.0) / size as f64 > cum && i + 1 < self.len() {
                i += 1;
                cum += (self.counts[i] as f64).powf(pow) / norm;
            }
        }
        table
    }

    /// The keep-probability for subsampling frequent words
    /// (`t = 1e-3` by convention).
    pub fn keep_probability(&self, i: usize, t: f64) -> f64 {
        let f = self.counts[i] as f64 / self.total as f64;
        if f <= t {
            1.0
        } else {
            ((t / f).sqrt() + t / f).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sentences() -> Vec<Vec<String>> {
        let to_v = |s: &str| s.split(' ').map(str::to_string).collect::<Vec<_>>();
        vec![
            to_v("fix refcount leak leak leak"),
            to_v("fix uaf bug"),
            to_v("fix leak again"),
        ]
    }

    #[test]
    fn builds_sorted_by_frequency() {
        let v = Vocab::build(&sentences(), 1);
        // `leak` (4) and `fix` (3) are most frequent.
        assert_eq!(v.word(0), "leak");
        assert_eq!(v.word(1), "fix");
        assert_eq!(v.count(0), 4);
    }

    #[test]
    fn min_count_filters() {
        let v = Vocab::build(&sentences(), 2);
        assert!(v.get("uaf").is_none());
        assert!(v.get("leak").is_some());
    }

    #[test]
    fn negative_table_biases_frequent() {
        let v = Vocab::build(&sentences(), 1);
        let table = v.negative_table(1000);
        assert_eq!(table.len(), 1000);
        let leak_hits = table
            .iter()
            .filter(|&&i| i == v.get("leak").unwrap())
            .count();
        let bug_hits = table
            .iter()
            .filter(|&&i| i == v.get("bug").unwrap())
            .count();
        assert!(leak_hits > bug_hits);
    }

    #[test]
    fn keep_probability_bounds() {
        let v = Vocab::build(&sentences(), 1);
        for i in 0..v.len() {
            let p = v.keep_probability(i, 1e-3);
            assert!(p > 0.0 && p <= 1.0);
        }
    }
}
