package main

import "dc/internal/lib"

func init() {
	println(lib.FromB())
}

func main() {
	println(len(lib.Map([]int{1}, func(i int) string { return "x" })))
	println(lib.NewSet[int]().Has(1))
}
