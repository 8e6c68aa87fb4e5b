//! Stub crossbeam::channel over std::sync::mpsc.

pub mod channel {
    use std::sync::mpsc;

    pub struct Sender<T>(mpsc::Sender<T>);
    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    #[derive(Debug)]
    pub struct SendError<T>(pub T);
    #[derive(Debug)]
    pub struct RecvError;
    #[derive(Debug)]
    pub enum TryRecvError {
        Empty,
        Disconnected,
    }

    impl<T> Sender<T> {
        pub fn send(&self, t: T) -> Result<(), SendError<T>> {
            self.0.send(t).map_err(|e| SendError(e.0))
        }
    }

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv().map_err(|_| RecvError)
        }
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            self.0.try_recv().map_err(|e| match e {
                mpsc::TryRecvError::Empty => TryRecvError::Empty,
                mpsc::TryRecvError::Disconnected => TryRecvError::Disconnected,
            })
        }
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            self.0.try_iter()
        }
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            self.0.iter()
        }
    }

    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (s, r) = mpsc::channel();
        (Sender(s), Receiver(r))
    }
}
