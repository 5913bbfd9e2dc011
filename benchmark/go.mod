module drainnet/benchmark

go 1.22

require drainnet v0.0.0

replace drainnet => ../
