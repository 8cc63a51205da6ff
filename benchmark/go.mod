module l3/benchmark

go 1.24

require l3 v0.0.0

replace l3 => ../
