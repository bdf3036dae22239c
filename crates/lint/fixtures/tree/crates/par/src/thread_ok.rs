// FIXTURE (never compiled): determinism-thread near-miss — crates/par owns thread creation.

pub fn pool_spawn() {
    // OK: this is the one crate allowed to create threads and size itself to the hardware.
    let handle = std::thread::spawn(|| ());
    let _ = handle;
    let n = std::thread::available_parallelism();
    let _ = n;
    // OK: scoped helper threads are the executor's own mechanism.
    std::thread::scope(|s| {
        let _ = s;
    });
}
