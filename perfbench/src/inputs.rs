//! Workload inputs, generated from the workload seed alone.
//!
//! The model's language is fixed (it is part of set-up), so inputs are cut
//! from a fixed pool of the corpus's Markov text: the seed picks where each
//! episode's filler and each prompt starts, which key an episode plants and
//! where, and each request's sampling seed. Round `r` of a run draws from
//! its own stream, so every round of a given seed is reproducible on its
//! own, however many rounds a run manages.

use nora_nn::corpus::{Episode, FIRST_CONTENT, KEY_MARK, QUERY_MARK};
use nora_nn::generate::Sampling;
use nora_serve::GenRequest;
use nora_tensor::rng::Rng;

/// Stream tags keeping each kind of input independent of the others.
const EPISODES: u64 = 0x45_50;
const REQUESTS: u64 = 0x52_51;
const SAMPLE: u64 = 0x53_4d;

/// Seed-driven generator over a fixed pool of in-distribution text.
pub struct Inputs {
    seed: u64,
    pool: Vec<usize>,
    vocab: usize,
    seq_len: usize,
}

impl Inputs {
    /// A generator for `seed` cutting from `pool` (Markov text of a corpus
    /// with the given vocabulary and episode length).
    pub fn new(seed: u64, pool: Vec<usize>, vocab: usize, seq_len: usize) -> Self {
        assert!(pool.len() > seq_len, "text pool shorter than one episode");
        Self {
            seed,
            pool,
            vocab,
            seq_len,
        }
    }

    fn rng(&self, stream: u64, index: u64) -> Rng {
        Rng::from_key(&[self.seed, stream, index])
    }

    /// `n` held-out recall episodes for stream `index`, laid out as the
    /// corpus lays them out: Markov filler, `KEY k k` planted in the first
    /// half with the filler running on from `k`, `QUERY` second to last,
    /// and the key as the answer.
    pub fn episodes(&self, index: u64, n: usize) -> Vec<Episode> {
        let mut rng = self.rng(EPISODES, index);
        let l = self.seq_len;
        (0..n)
            .map(|_| {
                let key = FIRST_CONTENT + rng.below(self.vocab - FIRST_CONTENT);
                let key_pos = 1 + rng.below(l / 2 - 1);
                let head = rng.below(self.pool.len() - key_pos);
                let mut tokens = self.pool[head..head + key_pos].to_vec();
                tokens.extend([KEY_MARK, key]);
                // Filler after the key continues the Markov text from an
                // occurrence of the key itself, as the corpus's does.
                let tail = l - 2 - tokens.len();
                let from = self.occurrence(key, rng.below(self.pool.len()), tail);
                tokens.extend_from_slice(&self.pool[from..from + tail]);
                tokens.extend([QUERY_MARK, key]);
                Episode { tokens, key }
            })
            .collect()
    }

    /// First position at or after `start` (wrapping) where `token` starts a
    /// pool run of `len` tokens.
    fn occurrence(&self, token: usize, start: usize, len: usize) -> usize {
        let last = self.pool.len() - len;
        (start..=last)
            .chain(0..start.min(last + 1))
            .find(|&j| self.pool[j] == token)
            .expect("every content token occurs in the text pool")
    }

    /// `n` requests for stream `index`: prompts of `prompt_len` tokens of
    /// Markov text, `new_tokens` each, alternating greedy and temperature
    /// 1.2 sampling, each with its own sampling (and noise) seed.
    pub fn requests(
        &self,
        index: u64,
        n: usize,
        prompt_len: usize,
        new_tokens: usize,
    ) -> Vec<GenRequest> {
        let mut rng = self.rng(REQUESTS, index);
        (0..n)
            .map(|i| {
                let start = rng.below(self.pool.len() - prompt_len);
                let sampling = if i % 2 == 0 {
                    Sampling::Greedy
                } else {
                    Sampling::Temperature(1.2)
                };
                GenRequest::new(self.pool[start..start + prompt_len].to_vec(), new_tokens)
                    .with_sampling(sampling)
                    .with_seed(rng.next_u64())
            })
            .collect()
    }

    /// `k` distinct indices below `n` picked by the seed (stream `index`),
    /// in ascending order.
    pub fn sample(&self, index: u64, n: usize, k: usize) -> Vec<usize> {
        let mut picked = self.rng(SAMPLE, index).sample_indices(n, k.min(n));
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(seed: u64) -> Inputs {
        let pool = (0..256).map(|i| FIRST_CONTENT + i % 14).collect();
        Inputs::new(seed, pool, 16, 16)
    }

    #[test]
    fn episodes_have_the_corpus_layout() {
        for ep in inputs(3).episodes(0, 50) {
            assert_eq!(ep.tokens.len(), 16);
            assert_eq!(ep.tokens[15], ep.key);
            assert_eq!(ep.tokens[14], QUERY_MARK);
            let k = ep.tokens.iter().position(|&t| t == KEY_MARK).unwrap();
            assert!((1..8).contains(&k));
            assert_eq!(ep.tokens[k + 1], ep.key);
            assert_eq!(ep.tokens[k + 2], ep.key);
            assert!(ep.key >= FIRST_CONTENT && ep.key < 16);
        }
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let (a, b, c) = (inputs(1), inputs(1), inputs(2));
        assert_eq!(a.episodes(4, 20), b.episodes(4, 20));
        assert_ne!(a.episodes(4, 20), c.episodes(4, 20));
        assert_ne!(a.episodes(4, 20), a.episodes(5, 20));
        let prompts = |i: &Inputs| -> Vec<Vec<usize>> {
            i.requests(0, 10, 3, 13)
                .into_iter()
                .map(|r| r.prompt)
                .collect()
        };
        assert_eq!(prompts(&a), prompts(&b));
        assert_ne!(prompts(&a), prompts(&c));
        assert_eq!(a.sample(0, 100, 8), b.sample(0, 100, 8));
        assert_eq!(a.sample(0, 100, 8).len(), 8);
    }
}
