module github.com/paper-repro/ccbm/benchmark

go 1.24

require github.com/paper-repro/ccbm v0.0.0

replace github.com/paper-repro/ccbm => ../
