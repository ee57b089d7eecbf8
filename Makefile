GO ?= go

.PHONY: all build test vet race ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# ci runs the full verification gate: vet + build + race-enabled tests.
ci:
	sh scripts/ci.sh
