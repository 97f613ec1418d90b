//sperke:fixture path=internal/dash/bad_cause.go

package dash

import "fmt"

// refetch hides a cause behind %v whose name gives no hint that it is
// an error: only its type does.
func refetch(url string) error {
	if cause := ping(url); cause != nil {
		return fmt.Errorf("dash: refetch %s: %v", url, cause)
	}
	return nil
}

func ping(string) error { return nil }
