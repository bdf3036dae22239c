// FIXTURE (never compiled): ad-hoc threading outside crates/par.

pub fn spawn_things() {
    // VIOLATION: thread::spawn outside the deterministic executor.
    let handle = std::thread::spawn(|| 1 + 1);
    let _ = handle;
    // VIOLATION: Builder-based spawning too.
    let b = thread::Builder::new();
    let _ = b;
    // VIOLATION: hardware-parallelism discovery belongs to crates/par.
    let n = std::thread::available_parallelism();
    let _ = n;
}

pub fn scope_things() {
    // VIOLATION: scoped threads borrow the caller's stack, but they are threads all the same.
    std::thread::scope(|s| {
        let _ = s;
    });
}
