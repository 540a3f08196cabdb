//! Prompt generation and routing (§II, Figure 2).
//!
//! The production router is itself a Llama2-7B-class classifier; here
//! routing is a deterministic seeded hash from prompt features to an
//! expert index. What the systems evaluation needs from the router is (a)
//! its own execution cost — modeled in [`crate::serving`] as a short
//! router-model run — and (b) a routing *distribution* over experts,
//! which drives switching behavior.

use serde::{Deserialize, Serialize};
use sn_arch::hash::StableHasher;

/// Task domains the experts specialize in (§II names coding, math, and
/// language translation among others).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    Coding,
    Math,
    Translation,
    Legal,
    Medical,
    Finance,
    Writing,
    Science,
    Chat,
    Summarization,
}

impl Domain {
    pub const ALL: [Domain; 10] = [
        Domain::Coding,
        Domain::Math,
        Domain::Translation,
        Domain::Legal,
        Domain::Medical,
        Domain::Finance,
        Domain::Writing,
        Domain::Science,
        Domain::Chat,
        Domain::Summarization,
    ];

    pub fn tag(self) -> &'static str {
        match self {
            Domain::Coding => "code",
            Domain::Math => "math",
            Domain::Translation => "translate",
            Domain::Legal => "legal",
            Domain::Medical => "medical",
            Domain::Finance => "finance",
            Domain::Writing => "writing",
            Domain::Science => "science",
            Domain::Chat => "chat",
            Domain::Summarization => "summarize",
        }
    }
}

/// One inference request.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Prompt {
    pub id: u64,
    pub domain: Domain,
    /// Prompt length in tokens.
    pub tokens: usize,
}

/// Deterministic, seeded prompt stream. Samples in a batch are unrelated
/// (§VI-B: "samples in a batch have no relationship with each other").
#[derive(Debug, Clone)]
pub struct PromptGenerator {
    seed: u64,
    next_id: u64,
    prompt_tokens: usize,
}

impl PromptGenerator {
    pub fn new(seed: u64, prompt_tokens: usize) -> Self {
        PromptGenerator {
            seed,
            next_id: 0,
            prompt_tokens,
        }
    }

    /// Draws the next prompt.
    pub fn next_prompt(&mut self) -> Prompt {
        let id = self.next_id;
        self.next_id += 1;
        let h = StableHasher::hash_one(&(self.seed, id));
        let domain = Domain::ALL[(h % Domain::ALL.len() as u64) as usize];
        Prompt {
            id,
            domain,
            tokens: self.prompt_tokens,
        }
    }

    /// Draws a batch of prompts.
    pub fn batch(&mut self, n: usize) -> Vec<Prompt> {
        (0..n).map(|_| self.next_prompt()).collect()
    }
}

/// Residue classes of `Prompt::id` the router distinguishes.
const ID_CLASSES: u64 = 16;

/// The router: maps each prompt to the most relevant expert (Figure 2).
///
/// Routing is a pure function of `(seed, domain, id % 16)`, a finite
/// input space, so construction hashes every key once and
/// [`Router::route`] is a table lookup.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Router {
    /// SipHash of `(seed, domain, class)` at `domain * 16 + class`.
    hashes: [u64; Domain::ALL.len() * ID_CLASSES as usize],
}

impl Router {
    pub fn new(seed: u64) -> Self {
        let mut hashes = [0u64; Domain::ALL.len() * ID_CLASSES as usize];
        for domain in Domain::ALL {
            for class in 0..ID_CLASSES {
                hashes[Self::key(domain, class)] = StableHasher::hash_one(&(seed, domain, class));
            }
        }
        Router { hashes }
    }

    /// Table slot of a `(domain, id class)` key. `Domain` is declared in
    /// `Domain::ALL` order, so the discriminant is the row.
    fn key(domain: Domain, class: u64) -> usize {
        domain as usize * ID_CLASSES as usize + class as usize
    }

    /// Routes a prompt to one of `n_experts` experts: prompts of the same
    /// domain concentrate on the domain's expert cluster, with some
    /// id-dependent dispersion (specialists per sub-task).
    ///
    /// # Panics
    ///
    /// Panics when `n_experts` is zero.
    pub fn route(&self, prompt: &Prompt, n_experts: usize) -> usize {
        assert!(n_experts > 0, "routing requires at least one expert");
        let h = self.hashes[Self::key(prompt.domain, prompt.id % ID_CLASSES)];
        (h % n_experts as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic() {
        let r = Router::new(7);
        let mut g = PromptGenerator::new(1, 512);
        let p = g.next_prompt();
        assert_eq!(r.route(&p, 150), r.route(&p, 150));
    }

    #[test]
    fn same_domain_prompts_reuse_experts() {
        // Temporal locality (§III-B): repeated domain traffic lands on a
        // bounded expert subset, which is what HBM caching exploits.
        let r = Router::new(7);
        let prompts: Vec<Prompt> = (0..64)
            .map(|id| Prompt {
                id,
                domain: Domain::Math,
                tokens: 512,
            })
            .collect();
        let experts: std::collections::HashSet<usize> =
            prompts.iter().map(|p| r.route(p, 150)).collect();
        assert!(
            experts.len() <= 16,
            "math prompts hit {} experts",
            experts.len()
        );
    }

    #[test]
    fn routing_spreads_across_library() {
        let r = Router::new(7);
        let mut g = PromptGenerator::new(3, 512);
        let hits: std::collections::HashSet<usize> =
            g.batch(512).iter().map(|p| r.route(p, 150)).collect();
        assert!(hits.len() > 30, "only {} experts used", hits.len());
    }

    #[test]
    fn generator_is_seed_stable() {
        let a: Vec<Prompt> = PromptGenerator::new(42, 512).batch(8);
        let b: Vec<Prompt> = PromptGenerator::new(42, 512).batch(8);
        assert_eq!(a, b);
        let c: Vec<Prompt> = PromptGenerator::new(43, 512).batch(8);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one expert")]
    fn routing_to_zero_experts_panics() {
        let r = Router::new(0);
        let p = Prompt {
            id: 0,
            domain: Domain::Chat,
            tokens: 8,
        };
        let _ = r.route(&p, 0);
    }
}
