module github.com/dsl-repro/hydra/benchmark

go 1.24

require github.com/dsl-repro/hydra v0.0.0

replace github.com/dsl-repro/hydra => ../
