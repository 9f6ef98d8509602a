#[test]
fn worker_finishes() {
    let done = spawn_worker();
    std::thread::sleep(std::time::Duration::from_millis(100));
    assert!(done.load(SeqCst));
}
