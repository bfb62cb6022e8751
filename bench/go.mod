// The benchmark is a module of its own so that building it never touches
// the simulator's build: it sees the simulator only through the replace
// below, and `go build ./...` at the repo root does not descend here.
module mobilesim/bench

go 1.21

require mobilesim v0.0.0

replace mobilesim => ../
