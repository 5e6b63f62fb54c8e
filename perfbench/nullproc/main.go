// Command nullproc starts and exits at once. perfbench times it beside
// each set-up probe: both pay for starting a Go process (exec, page
// faults, runtime start-up), so the ratio of their CPU times leaves out
// how fast the host happens to start processes at the moment and keeps
// what the simulator's packages and the benchmark's set-up add.
package main

func main() {}
