module aiacc/benchmark

go 1.24

require aiacc v0.0.0

replace aiacc => ../
