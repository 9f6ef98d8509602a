#[test]
fn worker_finishes() {
    let done = spawn_worker();
    let waited = Stopwatch::start();
    while !done.load(SeqCst) {
        assert!(waited.elapsed() < Duration::from_secs(5), "worker never finished");
        // lint:allow(test-sleep): back-off of a poll bounded by the 5 s
        // deadline above; the condition, not the sleep, ends the wait.
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
