//! One-shot completion tokens.
//!
//! A [`Token`] marks a server job's completion: it fires exactly once,
//! records its fire time, and wakes any registered waiter callbacks.

use crate::time::Time;
use crate::Sim;

/// Handle to a one-shot completion token. Dense index into `Sim`'s slab.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Token(pub(crate) u64);

impl Token {
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// A queued wake-up callback.
type Waiter = Box<dyn FnOnce(&mut Sim) + Send>;

pub(crate) struct TokenState {
    pub fired: bool,
    pub fire_time: Time,
    pub waiters: Vec<Waiter>,
}

impl TokenState {
    pub fn new() -> Self {
        TokenState {
            fired: false,
            fire_time: Time::ZERO,
            waiters: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dur;

    #[test]
    fn multiple_waiters_all_wake() {
        let mut sim = Sim::new();
        let tok = sim.token_create();
        let count = crate::testcell::SyncCell::new(0);
        for _ in 0..5 {
            let c = count.clone();
            sim.token_on_fire(tok, move |_| c.set(c.get() + 1));
        }
        sim.schedule(Dur::from_nanos(1), move |s| s.token_fire(tok));
        sim.run();
        assert_eq!(count.get(), 5);
    }
}
