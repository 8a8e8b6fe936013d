module orochi/bench

go 1.24

require orochi v0.0.0

replace orochi => ../
