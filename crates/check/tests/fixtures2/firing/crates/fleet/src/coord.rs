//! lock-order firing fixture: `A.m` and `B.n` are acquired in opposite
//! orders by the two methods, closing a cycle in the held-graph.

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
}

impl B {
    pub fn backward(&self, a: &A) -> u64 {
        let g = self.n.lock().unwrap_or_else(PoisonError::into_inner);
        let h = a.m.lock().unwrap_or_else(PoisonError::into_inner);
        *g + *h
    }
}
