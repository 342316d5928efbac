//! lock-order clean fixture: both methods take `A.m` before `B.n`, and
//! the `try_lock` fast path / `lock` slow path on one mutex must not
//! read as a self-cycle.

pub struct A {
    m: Mutex<u64>,
}

pub struct B {
    n: Mutex<u64>,
}

impl A {
    pub fn forward(&self, b: &B) -> u64 {
        let g = self.m.lock().unwrap_or_else(PoisonError::into_inner);
        let h = b.n.lock().unwrap_or_else(PoisonError::into_inner);
        *g + *h
    }

    pub fn fast_slow(&self) -> u64 {
        if let Ok(g) = self.m.try_lock() {
            return *g;
        }
        *self.m.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl B {
    pub fn same_order(&self, a: &A) -> u64 {
        a.forward(self)
    }
}
