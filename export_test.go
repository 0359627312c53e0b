package ricjs

import "ricjs/internal/bytecode"

// LayoutFor hands the external tests the shared site index of the
// program the cache holds for a script, compiling it on first sight.
func (c *CodeCache) LayoutFor(name, src string) (*bytecode.Layout, error) {
	prog, err := c.c.Load(name, src)
	if err != nil {
		return nil, err
	}
	return prog.Layout(), nil
}
