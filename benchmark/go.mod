module ugache/benchmark

go 1.22

require ugache v0.0.0

replace ugache => ../
