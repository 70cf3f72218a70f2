package main

import (
	"io"
	"net/http"

	"dc/internal/lib"
)

func main() {
	var r io.Reader = lib.Source{}
	io.ReadAll(r)
	http.Handle("/", lib.Handler{})
	println(lib.FromA())
}
