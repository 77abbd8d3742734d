module falkon/benchmark

go 1.22

require falkon v0.0.0

replace falkon => ../
