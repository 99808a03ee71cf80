module abcast/benchmarks/abperf

go 1.24

require abcast v0.0.0

replace abcast => ../..
