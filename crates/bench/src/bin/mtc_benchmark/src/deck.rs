//! A shuffled card deck (as TPC-C prescribes for its transaction mix): each
//! pass over the deck holds every operation type in exactly its share, so
//! two runs of a few thousand operations do the same kinds of work whatever
//! the seed. Independent draws would let the share of the expensive types
//! wander by several percent between seeds.

use mtc_util::rng::Rng;

pub struct Deck<T> {
    cards: Vec<T>,
    /// Next card to deal; the deck is reshuffled when it runs out.
    at: usize,
}

impl<T: Copy> Deck<T> {
    /// A deck of `size` cards in which each type gets its share of `weights`
    /// (largest-remainder rounding).
    pub fn new(weights: &[(T, f64)], size: usize) -> Deck<T> {
        let total: f64 = weights.iter().map(|(_, w)| w).sum();
        let exact: Vec<f64> = weights
            .iter()
            .map(|(_, w)| w / total * size as f64)
            .collect();
        let mut counts: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by(|&a, &b| {
            (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor()))
        });
        let short = size - counts.iter().sum::<usize>();
        for &i in by_remainder.iter().take(short) {
            counts[i] += 1;
        }
        let cards: Vec<T> = weights
            .iter()
            .zip(&counts)
            .flat_map(|((card, _), &n)| std::iter::repeat_n(*card, n))
            .collect();
        let at = cards.len();
        Deck { cards, at }
    }

    pub fn deal(&mut self, rng: &mut impl Rng) -> T {
        if self.at == self.cards.len() {
            // Fisher-Yates.
            for i in (1..self.cards.len()).rev() {
                self.cards.swap(i, rng.gen_range(0..=i));
            }
            self.at = 0;
        }
        self.at += 1;
        self.cards[self.at - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_util::rng::{SeedableRng, StdRng};

    #[test]
    fn every_pass_holds_each_type_in_its_share() {
        let weights = [('a', 60.0), ('b', 20.0), ('c', 19.5), ('d', 0.5)];
        let mut deck = Deck::new(&weights, 100);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..3 {
            let pass: Vec<char> = (0..100).map(|_| deck.deal(&mut rng)).collect();
            let count = |c| pass.iter().filter(|&&x| x == c).count();
            assert_eq!((count('a'), count('b')), (60, 20));
            assert_eq!(count('c') + count('d'), 20);
            assert!(count('d') <= 1);
        }
    }

    #[test]
    fn order_depends_on_the_seed_only() {
        let deal = |seed| {
            let mut deck = Deck::new(&[(1u8, 1.0), (2, 1.0), (3, 2.0)], 40);
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100).map(|_| deck.deal(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(deal(5), deal(5));
        assert_ne!(deal(5), deal(6));
    }
}
