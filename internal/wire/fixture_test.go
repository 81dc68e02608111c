package wire_test

import (
	"zeus/internal/wire"
	"zeus/internal/wire/wiretest"
)

func init() { wire.AllMessages = wiretest.AllMessages }
